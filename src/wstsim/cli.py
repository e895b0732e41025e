"""Batch experiment front-end.

Subcommands: dmt (analytic curves + SVG chart), outage (Monte Carlo outage
sweep + slope summary), simulate (decoder-level session error sweep), repair
(end-to-end storage repair sweep), selftest (algebra and oracle-equivalence
checks).  Every option is checked where argparse parses it, so a bad value
exits 2 before any work starts.  Every output file embeds a provenance
header: the version and every parsed option except the run-time ones
(--out-dir, --workers, --config), the master seed included, which is enough
to re-run it bit-identically.  outage, simulate and repair run through
parallel.sweep and get back integer counts per SNR point, from which this
module builds every rate, interval and slope it writes.  A simulate or
repair cell is one trial, whose trial index is its cell index, so trial t
of point i has index i * trials + t and its own substream; a worker runs its
trials in batches that may mix the points.  Results depend neither on the
worker count nor on the batching.  Exit codes: 0 success, 2 configuration
error, 3 runtime error, 4 statistical insufficiency.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .channel import snr_linear, trial_rng
from .dmt import DmtCurve, dmt_group, emit_fig1
from .lift import levels, lift, random_fragment, unlift
from .outage import InsufficientSamplesError, OutageSpec, estimate_slope, run_outage_sweep, wilson_interval
from .parallel import sweep
from .protocol import run_repair_trials, run_session_trials, run_sessions
from .storage import StorageConfig, mds_encode, repair_node
from . import algebra

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_STATS = 4

DMT_HEADER = "r,d_optimal,d_proposed,d_tdma"
OUTAGE_HEADER = "scheme,K,r,offset,snr_db,trials,outages,p_hat,ci_lo,ci_hi"
SIMULATE_HEADER = "scheme,m,decoder,snr_db,trials,session_errors,session_err_rate,visited_mean"
REPAIR_HEADER = "snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme"

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


#: accepted SNR values in dB: snr_linear stays within 1e-100 .. 1e100
SNR_DB_RANGE = (-1000.0, 1000.0)

#: most points an SNR grid, or rows a DMT grid, may have
MAX_GRID_POINTS = 10_000

#: most bits per QAM symbol: 256 levels per axis
MAX_QAM_BITS = 16

#: most trials a worker runs as one batch
BATCH_TRIALS = 250

#: most bits a repair share may hold: 8 KiB
MAX_FRAGMENT_BITS = 65_536

#: parsed options that do not change what a run computes, and argparse's
#: handler entry; every other option goes into the provenance header
RUNTIME_OPTIONS = ("out_dir", "workers", "config", "fn")


def _checked(convert, ok, expected: str):
    """An argparse type: convert the text, then require ok(value)."""

    def parse(text):
        try:
            value = convert(text)
            good = ok(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_helper_count = _checked(int, lambda v: v >= 2, "an integer >= 2")
_grid_rows = _checked(
    int, lambda v: 2 <= v <= MAX_GRID_POINTS, f"an integer in 2..{MAX_GRID_POINTS}"
)
_qam_bits = _checked(
    int, lambda v: 2 <= v <= MAX_QAM_BITS and v % 2 == 0, f"an even integer in 2..{MAX_QAM_BITS}"
)
_fragment_bits = _checked(
    int,
    lambda v: 8 <= v <= MAX_FRAGMENT_BITS and v % 8 == 0,
    f"a positive multiple of 8 up to {MAX_FRAGMENT_BITS}",
)
_finite_float = _checked(float, math.isfinite, "a finite number")
#: multiplexing gain: an exact nonnegative fraction with a finite float value
_gain = _checked(
    Fraction, lambda v: v >= 0 and math.isfinite(float(v)), "a nonnegative fraction or decimal"
)
_seed = _checked(int, lambda v: 0 <= v < 2**64, "a 64-bit unsigned integer")


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse 'lo:hi:step' (inclusive, dB) or a single dB value.

    Every value must be finite, the end points must lie inside SNR_DB_RANGE,
    and the grid may hold at most MAX_GRID_POINTS points; otherwise an
    argparse.ArgumentTypeError says which rule failed.  Points are rounded
    to 9 decimals, so the step must be at least 1e-9 dB; the points are
    counted before the grid is built, and every one lies in [lo, hi].
    """
    parts = str(text).split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"expected 'lo:hi:step' or one value, got {text!r}")
    values = [_finite_float(p) for p in parts]
    lo_db, hi_db = SNR_DB_RANGE
    if not all(lo_db <= v <= hi_db for v in values[:2]):
        raise argparse.ArgumentTypeError(
            f"SNR values must lie in [{lo_db:g}, {hi_db:g}] dB, got {text!r}"
        )
    if len(parts) == 1:
        return (values[0],)
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad SNR grid {text!r}")
    if step < 1e-9:
        raise argparse.ArgumentTypeError(f"SNR grid {text!r} steps below its 1e-9 dB resolution")
    # the last point is the one at most 1e-9 steps past hi
    count = math.floor((hi - lo) / step + 1e-9) + 1
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"SNR grid {text!r} has more than {MAX_GRID_POINTS} points"
        )
    grid = [min(max(round(v, 9), lo), hi) for v in itertools.accumulate([lo] + [step] * (count - 1))]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(f"SNR grid {text!r} repeats a point at 9 decimals")
    return tuple(grid)


def _config(args) -> dict:
    """The provenance of a run: the command and every parsed option but the
    run-time ones, the SNR grid as its list of dB values and r as a fraction."""
    config = {key: v for key, v in vars(args).items() if key not in RUNTIME_OPTIONS}
    if "snr_grid" in config:
        config["snr_grid_db"] = list(config.pop("snr_grid"))
    if "r" in config:
        config["r"] = str(config["r"])
    return config


def _provenance(args) -> list[str]:
    return [f"wstsim {__version__}", f"config: {json.dumps(_config(args), sort_keys=True)}"]


def _write_csv(args, name: str, header: str, rows) -> Path:
    """Write rows of values, each as str() spells it, under the provenance
    header to out_dir/name."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    lines = [f"# {p}" for p in _provenance(args)] + [header]
    path.write_text("\n".join(lines + [",".join(map(str, r)) for r in rows]) + "\n")
    return path


def _write_dmt_svg(path: Path, rows, provenance: list[str]) -> None:
    """Hand-rolled SVG line chart: deterministic bytes for identical inputs."""
    width, height = 640, 480
    ml, mr, mt, mb = 64, 16, 20, 48
    plot_w, plot_h = width - ml - mr, height - mt - mb
    xs = [float(r[0]) for r in rows]
    x_max = max(xs) or 1.0
    y_max = max(float(v) for r in rows for v in r[1:]) or 1.0

    def px(x: float) -> float:
        return ml + plot_w * x / x_max

    def py(y: float) -> float:
        return mt + plot_h * (1.0 - y / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- {' | '.join(provenance)} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
    ]
    n_ticks = 5
    for i in range(n_ticks + 1):
        xv = x_max * i / n_ticks
        yv = y_max * i / n_ticks
        parts.append(
            f'<line x1="{px(xv):.2f}" y1="{mt + plot_h}" x2="{px(xv):.2f}" '
            f'y2="{mt + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(xv):.2f}" y="{mt + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(yv):.2f}" x2="{ml}" y2="{py(yv):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{py(yv) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 10}" font-size="14" '
        f'text-anchor="middle">r</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.2f})">d(r)</text>'
    )
    labels = ("optimal MAC", "pair scheme", "TDMA")
    for idx, label in enumerate(labels):
        pts = " ".join(f"{px(float(r[0])):.2f},{py(float(r[idx + 1])):.2f}" for r in rows)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{_SVG_COLORS[idx]}" stroke-width="2"/>'
        )
        ly = mt + 18 + 18 * idx
        parts.append(
            f'<line x1="{ml + plot_w - 150}" y1="{ly}" x2="{ml + plot_w - 120}" y2="{ly}" '
            f'stroke="{_SVG_COLORS[idx]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w - 114}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def cmd_dmt(args) -> int:
    rows = emit_fig1(args.K, args.grid)
    values = ([float(v) for v in row] for row in rows)
    csv_path = _write_csv(args, f"dmt_K{args.K}.csv", DMT_HEADER, values)
    svg_path = csv_path.with_suffix(".svg")
    _write_dmt_svg(svg_path, rows, _provenance(args))
    print(f"dmt: wrote {csv_path} and {svg_path} ({len(rows)} grid rows)")
    return EXIT_OK


def cmd_outage(args) -> int:
    if args.offset is None:
        # r = 0 means zero rate and no outage event; default to 1 bit there
        args.offset = 1.0 if args.r == 0 else 0.0
    spec = OutageSpec(
        scheme=args.scheme,
        K=args.K,
        r=args.r,
        rate_offset_bits=args.offset,
        snr_grid_db=args.snr_grid,
        trials=args.trials,
        seed=args.seed,
    )
    start = time.perf_counter()
    counts = run_outage_sweep(spec, workers=args.workers)
    elapsed = time.perf_counter() - start
    n = spec.trials
    p_hat = [c / n for c in counts]
    fixed = (spec.scheme, spec.K, spec.r, spec.rate_offset_bits)
    rows = (fixed + (db, n, c, p, *wilson_interval(c, n)) for db, c, p in zip(spec.snr_grid_db, counts, p_hat))
    csv_path = _write_csv(args, f"outage_{spec.scheme}_K{spec.K}.csv", OUTAGE_HEADER, rows)
    try:
        slope, slope_error = estimate_slope(spec.snr_grid_db, p_hat), None
    except InsufficientSamplesError as exc:
        slope, slope_error = None, str(exc)
    summary = {
        "provenance": {"version": __version__, **_config(args)},
        "slope": None if slope is None else dataclasses.asdict(slope),
        "slope_error": slope_error,
    }
    json_path = csv_path.with_name(f"{csv_path.stem}_summary.json")
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(
        f"outage: {spec.trials} trials x {len(spec.snr_grid_db)} SNR points "
        f"in {elapsed:.1f}s -> {csv_path}"
    )
    if slope is None:
        print(f"outage: slope fit unavailable: {slope_error}", file=sys.stderr)
        return EXIT_STATS
    print(f"outage: d_hat = {slope.d_hat:.3f} (stderr {slope.stderr:.3f})")
    return EXIT_OK


def _batches(grid, trials: int, first: int, step: int):
    """The trials of cells first, first + step, ... of a sweep of trials
    trials a point over grid, in batches of at most BATCH_TRIALS, each
    generated as it is taken: three tuples, each trial's point index,
    amplitude sqrt(snr_linear) and trial index (its cell index)."""
    amps = [math.sqrt(snr_linear(db)) for db in grid]
    cells = ((j // trials, amps[j // trials], j) for j in range(first, len(grid) * trials, step))
    while batch := list(itertools.islice(cells, BATCH_TRIALS)):
        yield zip(*batch)


def _session_range(task):
    """Worker: the storage-free session trials of a parallel.sweep task, as
    counts per point."""
    (m, scheme, decoder_mode), seed, grid, trials, first, step = task
    counts = [[0, 0, 0] for _ in grid]  # trials, errors, visited nodes
    for rows, amps, indices in _batches(grid, trials, first, step):
        results = run_session_trials(m, amps, scheme, decoder_mode, seed, indices)
        for i, (errored, visited) in zip(rows, results):
            row = counts[i]
            row[0] += 1
            row[1] += errored
            row[2] += visited
    return np.array(counts, dtype=np.int64)


def _repair_range(task):
    """Worker: the repair trials of a parallel.sweep task, as counts per
    point."""
    (cfg, m, scheme, decoder_mode, noiseless), seed, grid, trials, first, step = task
    # sessions, errored, shares, failed, repairs, repair_fail
    counts = [[0] * 6 for _ in grid]
    for rows, amps, indices in _batches(grid, trials, first, step):
        results = run_repair_trials(cfg, m, amps, scheme, decoder_mode, seed, indices, noiseless)
        for i, res in zip(rows, results):
            row = counts[i]
            row[0] += res.sessions_total
            row[1] += res.sessions_errored
            row[2] += cfg.d
            row[3] += res.shares_failed
            row[4] += 1
            row[5] += not res.repaired_share_ok
    return np.array(counts, dtype=np.int64)


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    params = (args.m, args.scheme, args.decoder)
    totals = sweep(_session_range, params, args.seed, args.snr_grid, args.trials, args.workers).tolist()
    elapsed = time.perf_counter() - start
    rows = [
        (args.scheme, args.m, args.decoder, db, n, errors, errors / n, visited / n)
        for db, (n, errors, visited) in zip(args.snr_grid, totals)
    ]
    name = f"simulate_{args.scheme}_m{args.m}_{args.decoder}.csv"
    csv_path = _write_csv(args, name, SIMULATE_HEADER, rows)
    mean_visited = sum(row[2] for row in totals) / (args.trials * len(args.snr_grid))
    print(
        f"simulate: {args.trials} trials x {len(args.snr_grid)} SNR points in "
        f"{elapsed:.1f}s, visited-node mean {mean_visited:.1f} -> {csv_path}"
    )
    return EXIT_OK


def cmd_repair(args) -> int:
    cfg = StorageConfig(n=args.n, k=args.k, d=args.d, fragment_bits=args.fragment_bits)
    start = time.perf_counter()
    params = (cfg, args.m, args.scheme, args.decoder, args.noiseless)
    totals = sweep(_repair_range, params, args.seed, args.snr_grid, args.trials, args.workers).tolist()
    elapsed = time.perf_counter() - start
    rows = [
        (db, repairs, errored / sessions, failed / shares, unrepaired / repairs, args.scheme)
        for db, (sessions, errored, shares, failed, repairs, unrepaired) in zip(args.snr_grid, totals)
    ]
    csv_path = _write_csv(args, f"repair_{args.scheme}.csv", REPAIR_HEADER, rows)
    print(
        f"repair: {args.trials} trials x {len(args.snr_grid)} SNR points in "
        f"{elapsed:.1f}s -> {csv_path}"
    )
    return EXIT_OK


def _selftest_algebra(rng) -> tuple[bool, str]:
    for root in algebra.ROOTS:
        if abs(algebra.min_poly_value(root)) > 1e-12:
            return False, f"minimal polynomial fails at root {root}"
    for _ in range(500):
        c = rng.integers(-50, 51, size=12).tolist()
        a, b = algebra.FieldElement(*c[:6]), algebra.FieldElement(*c[6:])
        ta, tb = algebra.apply_tau(a, 1), algebra.apply_tau(b, 1)
        if algebra.apply_tau(a + b, 1) != ta + tb or algebra.apply_tau(a * b, 1) != ta * tb:
            return False, "tau is not a ring homomorphism"
        if algebra.apply_tau(algebra.apply_tau(ta, 1), 1) != a:
            return False, "tau^3 is not the identity"
        algebra.trace_norm(a)  # raises if Galois action is broken
        for j in range(3):
            lhs = algebra.embed(ta, j)
            rhs = algebra.embed(a, (j + 1) % 3)
            if abs(lhs - rhs) > 1e-6:
                return False, "embeddings do not shift cyclically under tau"
    return True, "minimal polynomial, homomorphism, tau^3, trace/norm, embedding shift"


def _selftest_lift() -> tuple[bool, str]:
    # m=2 and m=4 are the constellations of the benchmark's pair and TDMA runs
    for m in (2, 4):
        for i in range(1 << (3 * m)):
            if unlift(levels(i, m), m) != i:
                return False, f"round trip failed for {i:0{3 * m}b} at m={m}"
        if len({lift(i, m) for i in range(1 << (3 * m))}) != 1 << (3 * m):
            return False, f"lift is not injective at m={m}"
    return True, "lift bijective on all 64 fragments at m=2 and all 4,096 at m=4"


def _selftest_decoder(seed: int) -> tuple[bool, str]:
    # at 10 dB most searches run the scalar loop; at 25 dB most end at the
    # first leaf, whose result factor's certificate stores
    def sessions():
        rngs = [trial_rng(seed, i) for i in range(50)]
        return [([random_fragment(rng, 2), random_fragment(rng, 2)], rng) for rng in rngs]

    checked = 0
    for db in (10.0, 25.0):
        amp = np.full(50, math.sqrt(snr_linear(db)))
        sphere = run_sessions(sessions(), 2, amp, "sphere")
        oracle = run_sessions(sessions(), 2, amp, "ml")
        for (_, _, a), (_, _, b) in zip(sphere, oracle):
            if a.coordinates != b.coordinates:
                return False, f"sphere decoder disagrees with the ML oracle at {db:g} dB"
            if abs(a.metric - b.metric) > 1e-9:
                return False, f"sphere metric disagrees with the ML oracle at {db:g} dB"
            checked += 1
    return True, f"sphere decoder == ML oracle on {checked} noisy pair sessions at 10 and 25 dB"


def _selftest_dmt() -> tuple[bool, str]:
    F = Fraction
    expected = {
        10: ("optimal MAC", ((F(0), F(2)), (F(2, 11), F(18, 11)), (F(1, 5), F(0)))),
        2: ("pair-scheme", ((F(0), F(2)), (F(1, 5), F(0)))),
        1: ("TDMA", ((F(0), F(2)), (F(1, 10), F(0)))),
    }
    for g, (name, breakpoints) in expected.items():
        if dmt_group(10, g) != DmtCurve(breakpoints):
            return False, f"{name} curve breakpoints are wrong"
    return True, "K=10 curve breakpoints exact"


def _selftest_outage(rng) -> tuple[bool, str]:
    from .channel import draw_cn
    from .outage import full_mac_outage_reference, outage_trial_full_mac

    # at r = 1/4 and a 1-bit offset these SNRs send rows down all three
    # paths: cleared by the bound, in outage by an exact check, and walked
    chans = draw_cn(rng, (300, 2, 4))
    for db in (0.0, 10.0):
        args = (snr_linear(db), 4, Fraction(1, 4), 1.0)
        if not np.array_equal(outage_trial_full_mac(chans, *args), full_mac_outage_reference(chans, *args)):
            return False, f"full-MAC outage disagrees with the direct evaluator at {db:g} dB"
    return True, "full-MAC outage == direct evaluator on 300 K=4 draws at 0 and 10 dB"


def _selftest_storage(rng) -> tuple[bool, str]:
    # the interleaved layout a batch of repair trials encodes, and repair
    # from every k survivors, at the repair defaults n=6, k=3, 24-bit shares
    cfg = StorageConfig(6, 3)
    size = 3
    files = [rng.bytes(cfg.k * size) for _ in range(20)]
    batch = mds_encode(b"".join(f[j * size : (j + 1) * size] for j in range(cfg.k) for f in files), cfg)
    for t, file in enumerate(files):
        own = mds_encode(file, cfg)
        if any(batch[i].fragment[t * size : (t + 1) * size] != own[i].fragment for i in range(cfg.n)):
            return False, "a file encoded in the interleaved batch differs from its own encoding"
        for lost in range(cfg.n):
            survivors = [s for s in own if s.node_id != lost]
            for helpers in itertools.combinations(survivors, cfg.k):
                if repair_node(lost, list(helpers), cfg) != own[lost]:
                    ids = [h.node_id for h in helpers]
                    return False, f"repair of node {lost} from nodes {ids} is wrong"
    return True, "20 files encoded interleaved == each alone, repair from every 3 of 5 survivors at n=6"


def cmd_selftest(args) -> int:
    rng = trial_rng(args.seed)
    checks = [
        ("algebra", lambda: _selftest_algebra(rng)),
        ("lift", _selftest_lift),
        ("decoder", lambda: _selftest_decoder(args.seed)),
        ("dmt", _selftest_dmt),
        ("outage", lambda: _selftest_outage(rng)),
        ("storage", lambda: _selftest_storage(rng)),
    ]
    failed = False
    for name, fn in checks:
        ok, detail = fn()
        print(f"selftest {name}: {'ok' if ok else 'FAIL'} - {detail}")
        failed |= not ok
    return EXIT_RUNTIME if failed else EXIT_OK


def _add_common(parser) -> None:
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (results are worker-count independent)",
    )
    parser.add_argument("--config", default=None, help="JSON file with flag defaults")
    parser.add_argument("--seed", type=_seed, default=None, help="64-bit master seed (required)")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its subcommand parsers, built once per process:
    they hold no per-run state, and a --config file's values are parsed as
    flags rather than set as defaults."""
    parser = argparse.ArgumentParser(
        prog="wstsim",
        description="Wireless storage repair simulator: space-time codes over a fading MAC",
    )
    parser.add_argument("--version", action="version", version=f"wstsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("dmt", help="emit analytic DMT curves (CSV + SVG)")
    p.add_argument("--K", type=_helper_count, default=10, help="number of helper nodes")
    p.add_argument("--grid", type=_grid_rows, default=101, help="number of grid rows")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_dmt)
    subparsers["dmt"] = p

    p = sub.add_parser("outage", help="Monte Carlo outage sweep + slope estimate")
    p.add_argument("--scheme", choices=("tdma", "pair", "full-mac"), default="pair")
    p.add_argument("--K", type=_positive_int, default=10)
    p.add_argument("--r", type=_gain, default="0", help="multiplexing gain (fraction or decimal)")
    p.add_argument("--offset", type=_finite_float, default=None, help="rate offset in bits")
    p.add_argument("--snr-grid", type=_parse_snr_grid, default="10:25:5", help="lo:hi:step in dB")
    p.add_argument("--trials", type=_positive_int, default=100000)
    _add_common(p)
    p.set_defaults(fn=cmd_outage)
    subparsers["outage"] = p

    p = sub.add_parser("simulate", help="decoder-level session error sweep")
    p.add_argument("--scheme", choices=("pair", "tdma"), default="pair")
    p.add_argument("--m", type=_qam_bits, default=2, help="bits per QAM symbol (even)")
    p.add_argument("--decoder", choices=("sphere", "ml"), default="sphere")
    p.add_argument("--snr-grid", type=_parse_snr_grid, default="10:30:5")
    p.add_argument("--trials", type=_positive_int, default=1000)
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)
    subparsers["simulate"] = p

    p = sub.add_parser("repair", help="end-to-end storage repair sweep")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--fragment-bits", type=_fragment_bits, default=24)
    p.add_argument("--m", type=_qam_bits, default=2)
    p.add_argument("--scheme", choices=("pair", "tdma"), default="pair")
    p.add_argument("--decoder", choices=("sphere", "ml"), default="sphere")
    p.add_argument("--snr-grid", type=_parse_snr_grid, default="10:30:5")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--noiseless", action="store_true", help="force W = 0")
    _add_common(p)
    p.set_defaults(fn=cmd_repair)
    subparsers["repair"] = p

    p = sub.add_parser("selftest", help="run algebra and oracle-equivalence checks")
    p.add_argument("--seed", type=_seed, default=12345)
    p.set_defaults(fn=cmd_selftest)
    subparsers["selftest"] = p

    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"wstsim: cannot read config {config_path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(data, dict):
            print(f"wstsim: config {config_path} must hold a JSON object", file=sys.stderr)
            return EXIT_CONFIG
        defaults = vars(subparsers[args.command].parse_args([]))
        unknown = set(data) - (set(defaults) - {"fn"})
        if unknown:
            print(f"wstsim: unknown config keys {sorted(unknown)}", file=sys.stderr)
            return EXIT_CONFIG
        # each value stands for its flag, placed ahead of the command line's
        # own flags, so it gets the flag's type and choices checks and an
        # explicit flag wins
        flags = []
        for key, value in data.items():
            flag = "--" + key.replace("_", "-")
            if defaults[key] is False and isinstance(value, bool):  # a store_true switch
                flags += [flag] if value else []
            elif value is not None:  # null leaves the default
                flags.append(f"{flag}={value}")
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    if hasattr(args, "seed") and args.seed is None:
        print("wstsim: a master seed is required (--seed)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"wstsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"wstsim: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
