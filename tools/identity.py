"""Output-identity check for wstsim: run a fixed set of CLI invocations and
hash what each one leaves behind.

    python tools/identity.py write TREE MANIFEST.json
    python tools/identity.py compare A B

TREE is the root of a wstsim checkout; each run is `python -m wstsim ARGV`
with that checkout's `src` on PYTHONPATH, in a fresh temporary directory
(outputs go to the default `--out-dir .`).  A run is recorded as its exit
code, the sha256 of every file it wrote (by relative name; `*_metrics.json`
wall-clock sidecars are left out) and the sha256 of its stdout and stderr,
with elapsed times ("in 1.2s") and the checkout's path masked.  `write`
stores the manifest as JSON, with one digest over all runs; `compare` takes
two checkouts or two manifests (or one of each), prints every run whose
record differs and exits 1 if any does.

The fixed set is BENCH_19.json's 122 runs (simulate, repair and outage at
--workers 1 and 2, and the benchmark's outage arguments) plus `dmt` and
`selftest`.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_ELAPSED = re.compile(rb"\bin \d+(?:\.\d+)?s\b")


def _sim(scheme: str, m: int, decoder: str) -> str:
    return f"simulate --scheme {scheme} --m {m} --decoder {decoder}"


def _runs_at(workers: int) -> list[str]:
    runs = []
    for seed in (1, 2, 3):
        for scheme, m, decoders in (("pair", 2, "sphere ml"), ("tdma", 4, "sphere ml"), ("tdma", 2, "sphere")):
            if seed == 3 and m == 2 and scheme == "tdma":
                continue
            for decoder in decoders.split():
                runs.append(f"{_sim(scheme, m, decoder)} --snr-grid 0:30:10 --trials 300 --seed {seed}")
        if seed < 3:
            for scheme, m in (("pair", 4), ("tdma", 6)):
                runs.append(f"{_sim(scheme, m, 'sphere')} --snr-grid 10:30:10 --trials 100 --seed {seed}")
    runs.append(f"{_sim('pair', 6, 'sphere')} --snr-grid 20:30:10 --trials 20 --seed 1")
    bench = "repair --n 6 --k 3 --d 5 --fragment-bits 24 --snr-grid 10:30:5 --trials 10"
    for seed in (1, 2):
        for tail in (
            "--scheme pair --m 2 --decoder sphere",
            "--scheme pair --m 2 --decoder ml",
            "--scheme tdma --m 4 --decoder sphere",
            "--scheme tdma --m 4 --decoder ml",
            "--scheme pair --m 4 --decoder sphere",
            "--scheme pair --m 2 --decoder sphere --noiseless",
            "--scheme tdma --m 4 --decoder sphere --noiseless",
        ):
            runs.append(f"{bench} {tail} --seed {seed}")
    runs.append("repair --scheme pair --m 2 --snr-grid 10:20:5 --trials 20 --seed 3")
    for scheme in ("tdma", "pair", "full-mac"):
        for k in (1, 4, 10, 12):
            for grid in ("10:25:5", "-1000:1000:1000"):
                runs.append(
                    f"outage --scheme {scheme} --K {k} --snr-grid={grid} --r 1/20 --offset 1 --trials 20000 --seed 7"
                )
    return [f"{run} --workers {workers}" for run in runs]


#: BENCH_19's runs in its order, then dmt and selftest
RUNS = (
    _runs_at(1)
    + _runs_at(2)
    + [
        f"outage --scheme {scheme} --K 10 --r 1/20 --offset 1 --snr-grid 10:25:5 --trials 2048 --seed {seed}"
        " --workers 1"
        for scheme in ("tdma", "pair", "full-mac")
        for seed in (1, 12345)
    ]
    + [f"dmt --K {k}" for k in (4, 10)]
    + [f"selftest --seed {seed}" for seed in (1, 12345)]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(src: Path, argv: str) -> dict:
    """Run one argv against the package in src, in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    with tempfile.TemporaryDirectory(prefix="wstsim-identity-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "wstsim", *argv.split()], cwd=tmp, env=env, capture_output=True
        )
        files = {
            path.relative_to(tmp).as_posix(): _sha(path.read_bytes())
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file() and not path.name.endswith("_metrics.json")
        }
    def stream(data: bytes) -> str:
        # warnings name the source file, so the checkout's path is masked too
        return _sha(_ELAPSED.sub(b"in <elapsed>s", data).replace(os.fsencode(src.resolve()), b"<src>"))

    return {
        "exit": proc.returncode,
        "files": files,
        "stdout": stream(proc.stdout),
        "stderr": stream(proc.stderr),
    }


def build_manifest(tree: Path, runs, progress=None) -> dict:
    """The record of every run against the checkout at tree, and a digest
    over all of them."""
    records = {}
    for i, argv in enumerate(runs):
        records[argv] = record(Path(tree) / "src", argv)
        if progress:
            print(f"[{i + 1}/{len(runs)}] exit {records[argv]['exit']}: {argv}", file=progress)
    return {"runs": records, "digest": _sha(json.dumps(records, sort_keys=True).encode())}


def differences(a: dict, b: dict) -> list[str]:
    """One line per run whose record differs, or that only one manifest has."""
    out = []
    for argv in list(a["runs"]) + [k for k in b["runs"] if k not in a["runs"]]:
        ra, rb = a["runs"].get(argv), b["runs"].get(argv)
        if ra is None or rb is None:
            out.append(f"only in {'B' if ra is None else 'A'}: {argv}")
        elif ra != rb:
            parts = [key for key in ("exit", "files", "stdout", "stderr") if ra[key] != rb[key]]
            out.append(f"differs in {', '.join(parts)}: {argv}")
    return out


def _load(path: str) -> dict:
    """A checkout's manifest, built now, or a written one."""
    p = Path(path)
    if p.is_dir():
        return build_manifest(p, RUNS, progress=sys.stderr)
    return json.loads(p.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="run the set against a checkout and write its manifest")
    w.add_argument("tree")
    w.add_argument("manifest")
    c = sub.add_parser("compare", help="compare two checkouts or manifests; print the runs that differ")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        manifest = _load(args.tree)
        Path(args.manifest).write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        print(f"{len(manifest['runs'])} runs, digest {manifest['digest']}")
        return 0
    a, b = _load(args.a), _load(args.b)
    diff = differences(a, b)
    for line in diff:
        print(line)
    print(f"{len(a['runs'])} and {len(b['runs'])} runs, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
