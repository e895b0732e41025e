"""Benchmark of wstsim: repair and outage, end to end and per layer.

    python3 bench/run.py --workload repair --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every operation is one call of the
user-facing CLI entry point, `wstsim.cli.main`, with `--workers 1`, from
this process.  The timed phase repeats the workload's round of chunks for
`--seconds`; after each chunk a fixed pure-Python reference kernel runs,
and the chunk's wall time is scaled by the kernel's nominal time over its
measured time, so that the machine's own speed swings cancel out.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  All outputs are checked after the timed phase against the
independent models in models.py (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, Chunk, read_csv

#: iterations of the reference kernel, and its time on the reference machine
KERNEL_LOOPS = 100_000
NOMINAL_S = 0.017

#: fresh `python -m wstsim` processes timed for setup_s, after one untimed
SETUP_REPEATS = 9

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def kernel() -> float:
    """Seconds taken by a fixed integer loop that touches nothing of wstsim."""
    t0 = perf_counter()
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return perf_counter() - t0


class Runner:
    """Runs chunks in this process and keeps every one for the checks."""

    def __init__(self, seed: int, out: Path, tracer=None):
        from wstsim.cli import main

        self.main = main
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.chunks: list[Chunk] = []
        self.traced: list[int] = []
        self.last_kernel: float | None = None

    def run(self, chunk: Chunk, traced: bool = False) -> float:
        """Invoke the chunk; return its wall time in seconds."""
        if chunk.seed is None:
            chunk.seed = (self.seed * 1_000_003 + len(self.chunks)) % 2**63
        argv = chunk.argv + ["--seed", str(chunk.seed), "--workers", "1",
                             "--out-dir", str(self.out)]
        index = len(self.chunks)
        self.chunks.append(chunk)
        if traced:
            self.traced.append(index)
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    chunk.code = self.tracer.call(index, self.main, argv)
                else:
                    chunk.code = self.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            chunk.code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is one failed operation
            chunk.code = -1
            chunk.error = repr(exc)
        wall = perf_counter() - t0
        if chunk.code == 0:
            try:
                chunk.rows = read_csv(self.out / chunk.csv)
            except (OSError, IndexError) as exc:
                chunk.code, chunk.error = -1, f"no readable {chunk.csv}: {exc!r}"
        else:
            chunk.error = chunk.error or sink.getvalue().strip()[-500:]
        return wall

    def round(self, workload, traced: bool = False, replay: dict | None = None) -> dict:
        """One round, each chunk followed by the reference kernel; with
        replay, the chunks repeat that round's inputs."""
        trials = wall = calibrated = 0.0
        chunks = []
        for i, chunk in enumerate(workload.round()):
            if replay:
                chunk.seed, chunk.replay = replay["seeds"][i], True
            w = self.run(chunk, traced)
            k = kernel()
            # the kernel runs before (after the previous chunk) and after
            # this chunk bracket the machine's speed while it ran
            around = k if self.last_kernel is None else (self.last_kernel + k) / 2
            self.last_kernel = k
            trials += chunk.trials
            wall += w
            calibrated += w * NOMINAL_S / around
            chunks.append((chunk.kind, chunk.seed, w, k, chunk.rows))
        return {"trials": trials, "wall_s": wall, "calibrated_s": calibrated, "chunks": chunks,
                "seeds": [c[1] for c in chunks]}


def timed_rounds(runner: Runner, workload, seconds: float, traced: bool) -> list[dict]:
    """Whole rounds until `seconds` have passed.  When traced, each round
    is followed by a traced replay of its inputs."""
    rounds = []
    t0 = perf_counter()
    while len(rounds) < 2 or perf_counter() - t0 < seconds:
        rounds.append({**runner.round(workload), "traced": False})
        if traced:
            rounds.append({**runner.round(workload, True, rounds[-1]), "traced": True})
    return rounds


def measure_setup(workload, seed: int, out: Path) -> tuple[list[float], int]:
    """Wall times of fresh `python -m wstsim` processes, and how many failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "wstsim", *workload.setup_argv(), "--seed", str(seed),
           "--workers", "1", "--out-dir", str(out / "setup")]
    times, failed = [], 0
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        elapsed = perf_counter() - t0
        failed += proc.returncode != 0
        if i:  # the first process also compiles bytecode
            times.append(elapsed)
    return times, failed


def rate(rounds: list[dict]) -> tuple[float, float]:
    """(calibrated rate, raw rate) of a list of rounds.

    The calibrated rate is one over the interquartile mean of the rounds'
    calibrated seconds per trial, so that neither a burst of the machine's
    own noise nor a rare slow session (the sphere decoder's cost is
    heavy-tailed) moves it much.  The raw rate is all trials over all wall
    time, a reference figure.
    """
    per_trial = sorted(r["calibrated_s"] / r["trials"] for r in rounds)
    cut = len(per_trial) // 4
    calibrated = 1.0 / statistics.fmean(per_trial[cut:len(per_trial) - cut])
    raw = sum(r["trials"] for r in rounds) / sum(r["wall_s"] for r in rounds)
    return calibrated, raw


def check(workloads, runner: Runner, seed: int) -> tuple[int, list[str]]:
    """Check every chunk; return (failed operations, run-level problems)."""
    rng = np.random.default_rng([seed, 0x5EED])
    failed = 0
    problems = []
    for w in workloads:
        chunks = [c for c in runner.chunks if c.kind.split("-")[0] == w.name]
        model = w.model(rng)
        for c in chunks:
            if c.code != 0:
                issues = [f"exit code {c.code}: {c.error}"]
            else:
                try:
                    issues = w.check_chunk(c, model)
                    c.ok = True
                except (KeyError, ValueError) as exc:
                    issues = [f"unexpected CSV layout: {exc!r}"]
            if issues:
                failed += 1
                print(f"FAILED {c.kind} {' '.join(c.argv)}: {'; '.join(issues)}", file=sys.stderr)
        problems += [f"{w.name}: {p}" for p in w.check_total(chunks, model)]
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wstsim" / "__init__.py").is_file():
        print(f"bench: no wstsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    out = ROOT / "bench_out" / workload.name
    out.mkdir(parents=True, exist_ok=True)

    attempted = 0
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds}
    if not args.trace:
        setup, setup_failed = measure_setup(workload, args.seed, out)
        attempted += SETUP_REPEATS + 1
        report["setup_s"] = setup

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(args.seed, out, tracer)
    runner.round(workload)  # warm-up: imports, lazy tables, first allocations
    rounds = timed_rounds(runner, workload, args.seconds, bool(args.trace))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    others = [w for w in WORKLOADS.values() if w is not workload]
    if args.trace:
        # one traced round of each other workload, so every layer is measured
        for w in others:
            runner.round(w, traced=True)
    for w in [workload] + (others if args.trace else []):
        for chunk in w.extra():
            runner.run(chunk)

    calibrated, raw = rate([r for r in rounds if not r["traced"]])
    factors = [NOMINAL_S / c[3] for r in rounds for c in r["chunks"]]
    report.update(
        rounds=rounds,
        trials_per_s=calibrated, raw_trials_per_s=raw,
        calibration_factor=statistics.median(factors),
    )
    print(f"{workload.name}: {len(rounds)} rounds, calibrated {calibrated:.6g} trials/s, "
          f"raw {raw:.6g} trials/s, calibration factor {statistics.median(factors):.4f} "
          f"(min {min(factors):.4f}, max {max(factors):.4f})")

    failed, problems = check([workload] + (others if args.trace else []), runner, args.seed)
    attempted += len(runner.chunks)
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)

    if args.trace:
        from tracing import layer_metrics

        # each traced round replays the inputs of the untraced round before it
        overhead = (statistics.median(
            b["calibrated_s"] / a["calibrated_s"] for a, b in zip(rounds[::2], rounds[1::2])
        ) - 1.0) * 100.0
        traced, raw_traced = rate([r for r in rounds if r["traced"]])
        layers = layer_metrics(
            tracer, {i: (runner.chunks[i].kind, runner.chunks[i].trials) for i in runner.traced})
        layers["trace.overhead_pct"] = (overhead, "%")
        absent = sorted(k for k, (v, _) in layers.items() if v is None)
        print(f"tracing overhead {overhead:.1f} % (calibrated {calibrated:.6g} untraced, "
              f"{traced:.6g} traced; raw {raw:.6g} and {raw_traced:.6g})"
              + (f"; absent: {', '.join(absent)}" if absent else ""))
        tracer.write(out / "trace_spans.npz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        failed += setup_failed
        metrics = {
            "trials_per_s": {"value": calibrated, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    report["metrics"] = metrics
    report["problems"] = problems
    (out / f"run_trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
