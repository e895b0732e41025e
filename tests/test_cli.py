import argparse
import csv
import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import warnings

import pytest
from conftest import wstsim_env

import wstsim.cli as cli
from wstsim.cli import MAX_FRAGMENT_BITS, MAX_GRID_POINTS, MAX_QAM_BITS, build_parser, main

RUN = [sys.executable, "-m", "wstsim"]


def run_cli(*args, cwd):
    return subprocess.run(
        RUN + list(args), cwd=cwd, env=wstsim_env(), capture_output=True, text=True,
        timeout=600,
    )


def read_rows(path):
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# dmt
# ---------------------------------------------------------------------------


def test_dmt_writes_expected_curves(tmp_path):
    res = run_cli("dmt", "--K", "10", "--grid", "21", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_rows(tmp_path / "dmt_K10.csv")
    assert len(rows) == 21
    first = rows[0]
    assert float(first["r"]) == 0.0
    assert float(first["d_optimal"]) == 2.0
    assert float(first["d_proposed"]) == 2.0
    assert float(first["d_tdma"]) == 2.0
    svg = (tmp_path / "dmt_K10.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_dmt_golden_header(tmp_path):
    run_cli("dmt", "--K", "10", "--grid", "5", "--out-dir", str(tmp_path), cwd=tmp_path)
    lines = (tmp_path / "dmt_K10.csv").read_text().splitlines()
    assert lines[0] == "# wstsim 0.1.0"
    assert lines[1].startswith("# config: {")
    assert lines[2] == "r,d_optimal,d_proposed,d_tdma"


def test_dmt_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        res = run_cli("dmt", "--K", "10", "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 0
    assert file_hash(a / "dmt_K10.csv") == file_hash(b / "dmt_K10.csv")
    assert file_hash(a / "dmt_K10.svg") == file_hash(b / "dmt_K10.svg")


def test_dmt_rejects_bad_k(tmp_path):
    res = run_cli("dmt", "--K", "1", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------


def test_outage_smoke_schema_and_seeded_rerun(tmp_path):
    args = (
        "outage", "--scheme", "tdma", "--K", "4", "--r", "0", "--snr-grid", "0:10:5",
        "--trials", "2000", "--seed", "5", "--out-dir",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        res = run_cli(*args, str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    rows = read_rows(a / "outage_tdma_K4.csv")
    assert [r["snr_db"] for r in rows] == ["0.0", "5.0", "10.0"]
    assert set(rows[0]) == {
        "scheme", "K", "r", "offset", "snr_db", "trials", "outages", "p_hat", "ci_lo", "ci_hi",
    }
    assert file_hash(a / "outage_tdma_K4.csv") == file_hash(b / "outage_tdma_K4.csv")
    lines = (a / "outage_tdma_K4.csv").read_text().splitlines()
    assert lines[0] == "# wstsim 0.1.0"
    assert lines[2] == "scheme,K,r,offset,snr_db,trials,outages,p_hat,ci_lo,ci_hi"
    summary = json.loads((a / "outage_tdma_K4_summary.json").read_text())
    assert summary["slope"]["d_hat"] > 0
    assert summary["provenance"]["seed"] == 5


def test_outage_requires_seed(tmp_path):
    res = run_cli("outage", "--trials", "10", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert res.returncode == 2
    assert "seed" in res.stderr


def test_outage_insufficient_statistics_exit_code(tmp_path):
    res = run_cli(
        "outage", "--scheme", "tdma", "--K", "2", "--r", "0", "--snr-grid", "60:70:10",
        "--trials", "50", "--seed", "3", "--out-dir", str(tmp_path), cwd=tmp_path,
    )
    assert res.returncode == 4
    summary = json.loads((tmp_path / "outage_tdma_K2_summary.json").read_text())
    assert summary["slope"] is None
    assert "increase trials" in summary["slope_error"]


def test_full_mac_extreme_snr_sweep_warns_at_no_worker_count(tmp_path):
    # at +-1000 dB the reference evaluator's log2 argument cancels to <= 0 on
    # some rows; that is no warning, so stderr does not depend on --workers
    argv = ["outage", "--scheme", "full-mac", "--K", "4", "--snr-grid=-1000:1000:1000", "--r", "1/20",
            "--offset", "1", "--trials", "20000", "--seed", "7"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--workers", "1", "--out-dir", str(tmp_path)]) == 4
    errs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        out.mkdir()
        res = run_cli(*argv, "--workers", workers, "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 4
        errs.append(re.sub(r"\bin \d+(?:\.\d+)?s\b", "in <elapsed>s", res.stderr.replace(str(out), "<out>")))
    assert "Warning" not in errs[0]
    assert errs[0] == errs[1]


def test_outage_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scheme": "tdma", "K": 4, "trials": 1000, "seed": 8}))
    res = run_cli(
        "outage", "--config", str(cfg), "--snr-grid", "0:5:5", "--trials", "500",
        "--out-dir", str(tmp_path), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    rows = read_rows(tmp_path / "outage_tdma_K4.csv")
    assert rows[0]["trials"] == "500"  # explicit flag beats the config file


def test_outage_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    res = run_cli("outage", "--config", str(cfg), "--seed", "1", cwd=tmp_path)
    assert res.returncode == 2
    assert "bogus_key" in res.stderr


def test_config_rejects_the_handler_key(tmp_path, capsys):
    # "fn" is argparse's entry for the command's handler, not an option
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"fn": 1}))
    assert main(["outage", "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path)]) == 2
    assert "unknown config keys ['fn']" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_ml_and_sphere_agree_on_error_counts(tmp_path):
    common = (
        "simulate", "--m", "2", "--snr-grid", "8:12:4", "--trials", "100",
        "--seed", "21", "--out-dir", str(tmp_path),
    )
    for decoder in ("sphere", "ml"):
        res = run_cli(*common, "--decoder", decoder, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "visited-node mean" in res.stdout
    a = read_rows(tmp_path / "simulate_pair_m2_sphere.csv")
    b = read_rows(tmp_path / "simulate_pair_m2_ml.csv")
    assert [r["session_errors"] for r in a] == [r["session_errors"] for r in b]
    assert int(a[0]["session_errors"]) > 0  # 8 dB is noisy enough to matter
    lines = (tmp_path / "simulate_pair_m2_sphere.csv").read_text().splitlines()
    assert lines[2] == (
        "scheme,m,decoder,snr_db,trials,session_errors,session_err_rate,visited_mean"
    )


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_absurd_snr_has_zero_failures(tmp_path):
    res = run_cli(
        "repair", "--snr-grid", "1000", "--trials", "25", "--seed", "2",
        "--out-dir", str(tmp_path), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    row = read_rows(tmp_path / "repair_pair.csv")[0]
    assert float(row["session_err_rate"]) == 0.0
    assert float(row["share_fail_rate"]) == 0.0
    assert float(row["repair_fail_rate"]) == 0.0


def test_repair_golden_header(tmp_path):
    run_cli(
        "repair", "--snr-grid", "30", "--trials", "5", "--seed", "2",
        "--out-dir", str(tmp_path), cwd=tmp_path,
    )
    lines = (tmp_path / "repair_pair.csv").read_text().splitlines()
    assert lines[0] == "# wstsim 0.1.0"
    assert lines[2] == "snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme"


# ---------------------------------------------------------------------------
# edge inputs: an output or a clean exit code, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args, code",
    [
        (("simulate", "--trials", "0"), 2),
        (("repair", "--trials", "0"), 2),
        (("simulate", "--trials", "-5"), 2),
        (("simulate", "--snr-grid", "nan"), 2),
        (("simulate", "--snr-grid", "inf"), 2),
        (("simulate", "--snr-grid", "1e6"), 2),
        (("repair", "--snr-grid", "1e6"), 2),
        (("outage", "--snr-grid", "nan"), 2),
        (("outage", "--snr-grid", "inf"), 2),
        (("outage", "--snr-grid", "0:inf:5"), 2),
        (("outage", "--snr-grid", "0:10:1e-300"), 2),
        (("simulate", "--snr-grid", "-1000", "--trials", "2"), 0),
        (("outage", "--scheme", "full-mac", "--K", "4", "--snr-grid=-1000:1000:1000", "--trials", "64"), 0),
        (("outage", "--r", "abc", "--trials", "64", "--snr-grid", "10"), 2),
        (("outage", "--r", "1/0", "--trials", "64", "--snr-grid", "10"), 2),
        (("outage", "--r", "1e400", "--offset", "1", "--trials", "64", "--snr-grid", "10"), 2),
        (("outage", "--offset", "nan", "--trials", "64", "--snr-grid", "10"), 2),
        (("outage", "--offset", "inf", "--trials", "64", "--snr-grid", "10"), 2),
        (("outage", "--snr-grid", "0:4e-10:1e-10", "--trials", "64"), 2),
    ],
)
def test_edge_inputs_exit_cleanly(tmp_path, args, code):
    res = run_cli(*args, "--seed", "1", "--workers", "1", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert res.returncode in (0, 2, 3, 4)
    assert "Traceback" not in res.stderr, res.stderr
    assert res.returncode == code, res.stderr


@pytest.mark.parametrize(
    "config",
    [
        {"trials": 1.5},
        {"n": 6.0},
        {"m": 2.0},
        {"fragment_bits": 24.0},
        {"decoder": "foo"},
        {"noiseless": "no"},
        {"seed": 1.5},  # checked even though the explicit --seed wins
        {"trials": True},
        {"trials": False},
        [1, 2],
    ],
)
def test_config_values_get_the_flag_checks(tmp_path, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    res = run_cli("repair", "--seed", "1", "--config", str(cfg), "--trials", "2", "--snr-grid", "30",
                  "--workers", "1", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert "Traceback" not in res.stderr, res.stderr
    assert res.returncode == 2, res.stderr
    assert not (tmp_path / "repair_pair.csv").exists()


def test_config_values_equal_their_flags(tmp_path):
    flags = ["--scheme", "tdma", "--m", "4", "--fragment-bits", "16", "--snr-grid", "30",
             "--trials", "2", "--noiseless"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scheme": "tdma", "m": 4, "fragment_bits": 16, "snr_grid": "30",
                               "trials": 2, "noiseless": True, "decoder": None}))
    outputs = []
    for name, args in (("flags", flags), ("config", ["--config", str(cfg)])):
        out = tmp_path / name
        res = run_cli("repair", *args, "--seed", "3", "--workers", "1", "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        outputs.append((out / "repair_tdma.csv").read_text())
    assert outputs[0] == outputs[1]
    assert '"noiseless": true' in outputs[0]


def test_repair_ranges_split_across_workers_give_the_same_csv(tmp_path):
    # one worker runs the 260 trials as one range, two workers as two ranges
    # of 130; a range runs as batches of at most 250 trials, so one worker
    # decodes batches of 250 and 10 trials, two workers batches of 130
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        res = run_cli("repair", "--snr-grid", "12", "--trials", "260", "--seed", "6",
                      "--workers", workers, "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        outputs.append((out / "repair_pair.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert b"\n12.0,260," in outputs[0]


@pytest.mark.parametrize(
    "args",
    [
        # parsing stops at these, before anything is allocated or started
        ("simulate", "--m", "100"),
        ("repair", "--m", str(MAX_QAM_BITS + 2)),
        ("simulate", "--m", "3"),
        ("repair", "--m", "0"),
        ("dmt", "--grid", str(MAX_GRID_POINTS + 1)),
        ("dmt", "--grid", "1"),
        ("outage", "--trials", "0"),
        ("outage", "--seed", "-1"),
        ("outage", "--seed", str(2**64)),
        ("repair", "--fragment-bits", "0"),
        ("repair", "--fragment-bits", "12"),
        ("repair", "--fragment-bits", str(MAX_FRAGMENT_BITS + 8)),
    ],
)
def test_parser_bounds_exit_2(args, capsys):
    parser, _ = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(args)
    assert exc.value.code == 2
    assert "expected" in capsys.readouterr().err


def test_snr_grids_keep_their_points_inside_lo_hi():
    assert cli._parse_snr_grid("10:30:5") == (10.0, 15.0, 20.0, 25.0, 30.0)
    assert cli._parse_snr_grid("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
    assert cli._parse_snr_grid("0:1e-9:1e-9") == (0.0, 1e-9)
    assert cli._parse_snr_grid("0:0:5") == (0.0,)
    assert cli._parse_snr_grid("1e-10:1:0.5") == (1e-10, 0.5, 1.0)


def test_degenerate_snr_grids_are_refused_before_they_are_built():
    # all but the third step below the grid's 1e-9 dB resolution, and the
    # third rounds two points to one value at 9 decimals.  The last comes
    # last: a parser that took the others could loop about 1e11 times on it
    for text in ("0:4e-10:1e-10", "0:0:1e-13", "5e-10:3.6e-9:1e-9", "0:0:1e-20"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_snr_grid(text)


@pytest.mark.parametrize("command", ["outage", "simulate", "repair"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(command, workers, tmp_path, capsys):
    argv = [command, "--trials", "2", "--snr-grid", "30", "--seed", "1", "--workers", workers,
            "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--workers: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_parser_serves_many_runs_without_carrying_state(tmp_path):
    good = ["outage", "--scheme", "tdma", "--K", "2", "--snr-grid", "0:10:5", "--trials", "400",
            "--seed", "1", "--workers", "1"]
    names = ("outage_tdma_K2.csv", "outage_tdma_K2_summary.json")
    build_parser.cache_clear()  # the good run on its own, with a parser of its own
    assert main(good + ["--out-dir", str(tmp_path / "alone")]) == 0
    alone = [(tmp_path / "alone" / name).read_bytes() for name in names]
    parser = build_parser()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scheme": "pair", "r": "1/4", "offset": 0.5, "trials": 300}))
    assert main(["outage", "--config", str(cfg), "--K", "3", "--seed", "2", "--workers", "1",
                 "--out-dir", str(tmp_path / "config")]) in (0, 4)
    assert main(["outage", "--scheme", "full-mac", "--K", "3", "--r", "1/3", "--trials", "100",
                 "--seed", "3", "--workers", "1", "--out-dir", str(tmp_path / "plain")]) in (0, 4)
    with pytest.raises(SystemExit) as exc:
        main(["outage", "--r", "1/5", "--offset", "2", "--seed", "4", "--workers", "0",
              "--out-dir", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert main(good + ["--out-dir", str(tmp_path / "after")]) == 0
    assert build_parser() is parser
    assert [(tmp_path / "after" / name).read_bytes() for name in names] == alone


#: each command's provenance keys besides "command": every option that shapes
#: its output, so an option added to a command must be added here too
PROVENANCE_KEYS = {
    "dmt": {"K", "grid"},
    "outage": {"scheme", "K", "r", "offset", "snr_grid_db", "trials", "seed"},
    "simulate": {"scheme", "m", "decoder", "snr_grid_db", "trials", "seed"},
    "repair": {"n", "k", "d", "fragment_bits", "m", "scheme", "decoder", "snr_grid_db", "trials",
               "seed", "noiseless"},
}
PROVENANCE_RUNS = {
    "dmt": (["dmt", "--grid", "3"], "dmt_K10.csv"),
    "outage": (["outage", "--scheme", "tdma", "--K", "2", "--snr-grid", "0:5:5", "--trials", "200",
                "--seed", "1"], "outage_tdma_K2.csv"),
    "simulate": (["simulate", "--snr-grid", "30", "--trials", "2", "--seed", "1"],
                 "simulate_pair_m2_sphere.csv"),
    "repair": (["repair", "--snr-grid", "30", "--trials", "1", "--seed", "1"], "repair_pair.csv"),
}


@pytest.mark.parametrize("command", sorted(PROVENANCE_KEYS))
def test_provenance_holds_every_option_but_the_run_time_ones(command, tmp_path):
    _, subparsers = build_parser()
    options = set(vars(subparsers[command].parse_args([]))) - {"out_dir", "workers", "config", "fn"}
    expected = PROVENANCE_KEYS[command]
    assert {"snr_grid_db" if o == "snr_grid" else o for o in options} == expected
    argv, name = PROVENANCE_RUNS[command]
    workers = [] if command == "dmt" else ["--workers", "1"]
    assert main(argv + workers + ["--out-dir", str(tmp_path)]) in (0, 4)
    header = (tmp_path / name).read_text().splitlines()[1]
    config = json.loads(header.removeprefix("# config: "))
    assert set(config) == expected | {"command"}
    assert config["command"] == command


def test_outage_r_as_decimal_or_fraction_writes_the_same_files(tmp_path):
    for r in ("0.05", "1/20"):
        out = tmp_path / r.replace("/", "_")
        res = main(["outage", "--scheme", "pair", "--K", "4", "--r", r, "--snr-grid", "0:10:5",
                    "--trials", "500", "--seed", "2", "--workers", "1", "--out-dir", str(out)])
        assert res in (0, 4)
    for name in ("outage_pair_K4.csv", "outage_pair_K4_summary.json"):
        assert (tmp_path / "0.05" / name).read_bytes() == (tmp_path / "1_20" / name).read_bytes()
    assert '"r": "1/20"' in (tmp_path / "0.05" / "outage_pair_K4.csv").read_text()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_passes(tmp_path):
    res = run_cli("selftest", cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("ok") >= 4
    assert "selftest outage: ok" in res.stdout
    assert "all 4,096 at m=4" in res.stdout
    assert "FAIL" not in res.stdout


def test_selftest_storage_catches_a_wrong_layout_or_repair(monkeypatch):
    assert cli._selftest_storage(cli.trial_rng(3))[0]
    encode, repair = cli.mds_encode, cli.repair_node

    def reversed_batch(file, cfg):
        # a batch encoder that does not keep the interleaved layout
        return encode(file[::-1] if len(file) > cfg.k * 3 else file, cfg)

    monkeypatch.setattr(cli, "mds_encode", reversed_batch)
    ok, detail = cli._selftest_storage(cli.trial_rng(3))
    assert not ok and "interleaved" in detail
    monkeypatch.setattr(cli, "mds_encode", encode)

    def wrong_from_one_triple(lost, helpers, cfg):
        out = repair(lost, helpers, cfg)
        if lost == 5 and [h.node_id for h in helpers] == [1, 2, 4]:
            return dataclasses.replace(out, fragment=bytes([out.fragment[0] ^ 1]) + out.fragment[1:])
        return out

    monkeypatch.setattr(cli, "repair_node", wrong_from_one_triple)
    ok, detail = cli._selftest_storage(cli.trial_rng(3))
    assert not ok and "node 5 from nodes [1, 2, 4]" in detail


def test_selftest_lift_checks_m4(monkeypatch):
    # a lift that breaks only in the benchmark's TDMA constellation fails it
    real = cli.unlift

    def broken(coordinates, m):
        frag = real(coordinates, m)
        return frag ^ 1 if m == 4 and frag == 4000 else frag

    monkeypatch.setattr(cli, "unlift", broken)
    ok, detail = cli._selftest_lift()
    assert not ok and "m=4" in detail
