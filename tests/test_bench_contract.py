"""The benchmark's traced run reaches wstsim through module attributes.

bench/tracing.py lists, in SPANS, the (module, attribute) pairs it wraps;
its per-layer metrics read the spans of those wrappers.  A name that is
removed, or that the program stops calling through that attribute, yields
a null metric in a traced run.  These tests read SPANS and the metric code
from bench/tracing.py as they are, and run tiny workloads through
wstsim.cli.main.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wstsim.cli import main
from wstsim.decoder import DecodeResult

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: span names each workload family's per-layer metrics read
FAMILY_SPANS = {
    "repair": {
        "protocol.repair_range", "decoder.decode_session",
        "channel.trial_rng", "channel.draw_session", "channel.transmit",
        "lift.lift", "lift.unlift", "algebra.embed", "encoder.codeword",
        "encoder.equivalent_channel", "encoder.realify", "decoder.sphere_decode",
        "storage.mds_encode", "storage.repair_node",
    },
    "outage": {"outage.sweep", "channel.draw_cn", "outage.tdma", "outage.pair", "outage.full_mac"},
}

# at 30 dB every share of the trial decodes, so repair_node runs too
REPAIR_ARGS = ["repair", "--n", "6", "--k", "3", "--d", "5", "--fragment-bits", "24",
               "--decoder", "sphere", "--snr-grid", "30", "--trials", "1"]
OUTAGE_ARGS = ["outage", "--K", "10", "--r", "1/20", "--offset", "1",
               "--snr-grid", "10:12:1", "--trials", "256"]

#: (family, trials, argv) of one tiny run per scheme of each workload
CHUNKS = [
    ("repair", 1, REPAIR_ARGS + ["--scheme", "pair", "--m", "2"]),
    ("repair", 1, REPAIR_ARGS + ["--scheme", "tdma", "--m", "4"]),
    ("outage", 768, OUTAGE_ARGS + ["--scheme", "tdma"]),
    ("outage", 768, OUTAGE_ARGS + ["--scheme", "pair"]),
    ("outage", 768, OUTAGE_ARGS + ["--scheme", "full-mac"]),
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv, out_dir):
    return main(argv + ["--seed", "5", "--workers", "1", "--out-dir", str(out_dir)])


def test_every_span_attribute_resolves(tracing):
    for module, attr, name in tracing.SPANS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, name)


def test_every_span_a_metric_reads_is_called(tracing, monkeypatch, tmp_path):
    calls = {}
    family = [""]

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[family[0], name] = calls.get((family[0], name), 0) + 1
            result = fn(*args, **kwargs)
            if name == "decoder.sphere_decode":
                assert isinstance(result.visited_nodes, int)
                assert isinstance(result.fallback, bool)
            return result

        return wrapper

    for module, attr, name in tracing.SPANS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counted(getattr(mod, attr), name))
    for fam, _, argv in CHUNKS:
        family[0] = fam
        assert run(argv, tmp_path) == 0
    uncalled = sorted(
        (fam, name) for fam, names in FAMILY_SPANS.items() for name in names
        if not calls.get((fam, name))
    )
    assert not uncalled
    fields = {f.name for f in dataclasses.fields(DecodeResult)}
    assert {"visited_nodes", "fallback"} <= fields


def test_traced_run_reports_every_per_layer_metric(tracing, tmp_path):
    tracer = tracing.Tracer()
    assert not tracer.missing
    chunks = {}
    for index, (fam, trials, argv) in enumerate(CHUNKS):
        assert tracer.call(index, main, argv + ["--seed", "5", "--workers", "1",
                                                "--out-dir", str(tmp_path)]) == 0
        chunks[index] = (f"{fam}-{argv[argv.index('--scheme') + 1]}", trials)
    assert tracer.counters_ok
    metrics = tracing.layer_metrics(tracer, chunks)
    assert not sorted(k for k, (value, _) in metrics.items() if value is None)
    assert metrics["protocol.sessions_per_trial"][0] == 11
    assert metrics["lift.calls_per_trial"][0] == 30
    # 3 embed calls per lift of a helper's block (15 a trial); the decoder
    # returns PAM coordinates and builds no lattice point, so no more
    assert metrics["algebra.embed_calls_per_trial"][0] == 45
    # nodes_per_decode and ns_per_node are per session only while every
    # session gets its own sphere_decode call
    name, _, _, chunk = tracer.table()
    repair = [i for i, (kind, _) in chunks.items() if kind.startswith("repair")]
    decodes = (name == tracer.name_id["decoder.sphere_decode"]) & np.isin(chunk, repair)
    trials = sum(chunks[i][1] for i in repair)
    assert int(decodes.sum()) / trials == metrics["protocol.sessions_per_trial"][0] == 11
