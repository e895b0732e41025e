"""Spans around calls into wstsim's modules, recorded from outside the program.

Each traced function is replaced, for the traced chunks only, at the module
attribute through which its caller looks it up (protocol.py imports
`decode_session` into its own namespace, so the span wraps
`wstsim.protocol.decode_session`).  A span records its name, start, end,
parent span and chunk; spans stay in memory and are written out at the end
of the run.  A layer's self time is its span's duration minus that of its
direct child spans.  A function that no longer exists under its name is
skipped, and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

#: (module the caller looks the name up in, attribute, span name)
SPANS = (
    ("wstsim.cli", "_repair_range", "protocol.repair_range"),
    ("wstsim.cli", "run_outage_sweep", "outage.sweep"),
    ("wstsim.protocol", "trial_rng", "channel.trial_rng"),
    ("wstsim.protocol", "draw_session", "channel.draw_session"),
    ("wstsim.protocol", "transmit", "channel.transmit"),
    ("wstsim.protocol", "lift", "lift.lift"),
    ("wstsim.protocol", "unlift", "lift.unlift"),
    ("wstsim.protocol", "build_pair_codeword", "encoder.codeword"),
    ("wstsim.protocol", "build_tdma_codeword", "encoder.codeword"),
    ("wstsim.protocol", "decode_session", "decoder.decode_session"),
    ("wstsim.protocol", "mds_encode", "storage.mds_encode"),
    ("wstsim.protocol", "repair_node", "storage.repair_node"),
    ("wstsim.lift", "embed", "algebra.embed"),
    ("wstsim.decoder", "build_equivalent_channel", "encoder.equivalent_channel"),
    ("wstsim.decoder", "realify", "encoder.realify"),
    ("wstsim.decoder", "sphere_decode", "decoder.sphere_decode"),
    ("wstsim.decoder", "brute_force_ml", "decoder.brute_force_ml"),
    ("wstsim.outage", "trial_rng", "channel.trial_rng"),
    ("wstsim.outage", "draw_cn", "channel.draw_cn"),
    ("wstsim.outage", "outage_trial_tdma", "outage.tdma"),
    ("wstsim.outage", "outage_trial_pair", "outage.pair"),
    ("wstsim.outage", "outage_trial_full_mac", "outage.full_mac"),
)

#: span name of the benchmark's own call into wstsim.cli.main
ROOT = "cli.main"


class Tracer:
    """Wrappers for the functions in SPANS, and the spans they record."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id: dict[str, int] = {ROOT: 0}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.chunk = array("l")
        self.stack = [-1]
        self.current_chunk = -1
        self.decodes: dict[int, list[int]] = {}  # chunk -> [nodes, fallbacks]
        self.counters_ok = True
        self.missing: set[str] = set()
        self.patches = []
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            hook = self._decode_counts if name == "decoder.sphere_decode" else None
            self.patches.append((mod, attr, fn, self._wrap(fn, self._id(name), hook)))

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _decode_counts(self, result) -> None:
        try:
            counts = self.decodes.setdefault(self.current_chunk, [0, 0])
            counts[0] += result.visited_nodes
            counts[1] += bool(result.fallback)
        except AttributeError:
            self.counters_ok = False

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.chunk.append(self.current_chunk)
        self.stack.append(idx)
        return idx

    def _wrap(self, fn, name_id: int, hook):
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(result)
            return result

        return traced

    def call(self, chunk_index: int, main, argv):
        """Run main(argv) under a root span, with every wrapper installed."""
        self.current_chunk = chunk_index
        for mod, attr, _, traced in self.patches:
            setattr(mod, attr, traced)
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return main(argv)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            for mod, attr, fn, _ in self.patches:
                setattr(mod, attr, fn)

    def table(self):
        """Per-span arrays: name, duration, self time, chunk."""
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(int)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, dur, dur - child, np.frombuffer(self.chunk, dtype=np.int64)

    def write(self, path) -> None:
        """All spans, as arrays: name index, start and end (s), parent, chunk."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            chunk=np.frombuffer(self.chunk, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, chunks) -> dict[str, tuple[float | None, str]]:
    """The per-layer metrics, each from the chunks of the workload it moves.

    chunks maps a traced chunk's index to (kind, trials); a chunk of kind
    "repair-pair" belongs to the family "repair".  A metric whose spans are
    missing is None.
    """
    name, dur, self_t, chunk = tracer.table()
    families = sorted({k.split("-")[0] for k, _ in chunks.values()})
    family_of = np.full(max(chunks, default=0) + 1, -1)
    trials = dict.fromkeys(families, 0)
    for c, (k, t) in chunks.items():
        family_of[c] = families.index(k.split("-")[0])
        trials[k.split("-")[0]] += t
    span_family = family_of[chunk]

    def sel(span: str, family: str):
        """Spans of one name in the chunks of one family ("" for every chunk)."""
        if span in tracer.missing or span not in tracer.name_id:
            return None
        if not family:
            return name == tracer.name_id[span]
        if family not in families:
            return None
        return (name == tracer.name_id[span]) & (span_family == families.index(family))

    def mean(span, family, scale, own=False):
        s = sel(span, family)
        if s is None or not s.any():
            return None
        return float((self_t if own else dur)[s].mean()) * scale

    def count(spans, family, per):
        masks = [sel(sp, family) for sp in spans]
        if any(m is None for m in masks) or not per:
            return None
        return sum(int(m.sum()) for m in masks) / per

    def self_per(span, family, per, scale):
        s = sel(span, family)
        if s is None or not per:
            return None
        return float(self_t[s].sum()) / per * scale

    repairs = trials.get("repair", 0)
    decodes = sel("decoder.sphere_decode", "repair")
    blocks = sum(int(sel(s, "outage").sum()) for s in ("outage.tdma", "outage.pair", "outage.full_mac")
                 if sel(s, "outage") is not None)
    counted = [v for c, v in tracer.decodes.items() if chunks[c][0].startswith("repair")]
    nodes = sum(v[0] for v in counted) if tracer.counters_ok else None
    fallbacks = sum(v[1] for v in counted) if tracer.counters_ok else None
    return {
        "cli.self_ms_per_call": (mean(ROOT, "", 1e3, own=True), "ms"),
        "protocol.self_us_per_trial": (self_per("protocol.repair_range", "repair", repairs, 1e6), "us"),
        "protocol.sessions_per_trial": (count(["decoder.decode_session"], "repair", repairs), "count"),
        "lift.lift_us": (mean("lift.lift", "repair", 1e6), "us"),
        "lift.unlift_us": (mean("lift.unlift", "repair", 1e6), "us"),
        "lift.calls_per_trial": (count(["lift.lift", "lift.unlift"], "repair", repairs), "count"),
        "algebra.embed_us": (mean("algebra.embed", "repair", 1e6), "us"),
        "algebra.embed_calls_per_trial": (count(["algebra.embed"], "repair", repairs), "count"),
        "encoder.codeword_us": (mean("encoder.codeword", "repair", 1e6), "us"),
        "encoder.equivalent_channel_us": (mean("encoder.equivalent_channel", "repair", 1e6), "us"),
        "encoder.realify_us": (mean("encoder.realify", "repair", 1e6), "us"),
        "channel.trial_rng_us": (mean("channel.trial_rng", "repair", 1e6), "us"),
        "channel.draw_session_us": (mean("channel.draw_session", "repair", 1e6), "us"),
        "channel.transmit_us": (mean("channel.transmit", "repair", 1e6), "us"),
        "channel.draw_cn_ms_per_block": (mean("channel.draw_cn", "outage", 1e3), "ms"),
        "decoder.decode_session_self_us": (mean("decoder.decode_session", "repair", 1e6, own=True), "us"),
        "decoder.sphere_decode_us": (mean("decoder.sphere_decode", "repair", 1e6), "us"),
        "decoder.nodes_per_decode": (
            None if decodes is None or nodes is None or not decodes.any() else nodes / int(decodes.sum()),
            "count"),
        "decoder.ns_per_node": (
            None if decodes is None or not nodes else float(dur[decodes].sum()) / nodes * 1e9, "ns"),
        "decoder.fallback_calls": (fallbacks, "count"),
        "storage.mds_encode_us": (mean("storage.mds_encode", "repair", 1e6), "us"),
        "storage.repair_node_us": (mean("storage.repair_node", "repair", 1e6), "us"),
        "outage.full_mac_ms_per_block": (mean("outage.full_mac", "outage", 1e3), "ms"),
        "outage.pair_ms_per_block": (mean("outage.pair", "outage", 1e3), "ms"),
        "outage.tdma_ms_per_block": (mean("outage.tdma", "outage", 1e3), "ms"),
        "outage.self_ms_per_block": (self_per("outage.sweep", "outage", blocks, 1e3), "ms"),
    }
