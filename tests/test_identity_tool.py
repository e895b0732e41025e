"""tools/identity.py, the output-identity check, on two tiny runs."""

import importlib.util
import json
from pathlib import Path

import wstsim

ROOT = Path(__file__).resolve().parents[1]
TINY = [
    "dmt --K 4 --grid 5",
    "simulate --scheme tdma --m 2 --decoder sphere --snr-grid 20 --trials 5 --seed 1 --workers 1",
]


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_manifest_is_repeatable_and_compares(tmp_path, capsys):
    tool = load_tool()
    tree = Path(wstsim.__file__).resolve().parents[2]  # the checkout whose src/ is under test
    first = tool.build_manifest(tree, TINY)
    second = tool.build_manifest(tree, TINY)
    assert first == second
    dmt, sim = (first["runs"][argv] for argv in TINY)
    assert dmt["exit"] == sim["exit"] == 0
    assert sorted(dmt["files"]) == ["dmt_K4.csv", "dmt_K4.svg"]
    assert sorted(sim["files"]) == ["simulate_tdma_m2_sphere.csv"]
    assert tool.differences(first, second) == []
    changed = json.loads(json.dumps(second))
    changed["runs"][TINY[1]]["files"]["simulate_tdma_m2_sphere.csv"] = "0" * 64
    del changed["runs"][TINY[0]]
    assert tool.differences(first, changed) == [
        f"only in A: {TINY[0]}",
        f"differs in files: {TINY[1]}",
    ]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(first))
    (tmp_path / "b.json").write_text(json.dumps(changed))
    assert tool.main(["compare", str(path), str(path)]) == 0
    assert tool.main(["compare", str(path), str(tmp_path / "b.json")]) == 1
    assert f"differs in files: {TINY[1]}" in capsys.readouterr().out


def test_run_set_holds_bench_19s_runs():
    hashed = json.loads((ROOT / "BENCH_19.json").read_text())["byte_identity"]["hashes"]
    runs = load_tool().RUNS
    assert runs[: len(hashed)] == list(hashed)
    assert len(set(runs)) == len(runs)
    assert {run.split()[0] for run in runs[len(hashed) :]} == {"dmt", "selftest"}
