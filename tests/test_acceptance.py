"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not deferred.  Monte Carlo criteria use
frozen seeds; all sweeps are deterministic, so the asserted numbers are
reproducible bit for bit.
"""

import hashlib
import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from wstsim.algebra import (
    ETA,
    ROOTS,
    FieldElement,
    apply_tau,
    embed,
    min_poly_value,
    trace_norm,
)
from wstsim.channel import draw_session, trial_rng
from wstsim.dmt import DmtCurve, dmt_group
from wstsim.lift import levels, lift, random_fragment, unlift
from wstsim.outage import OutageSpec, estimate_slope, run_outage_sweep, wilson_interval
from wstsim.cli import _repair_range
from wstsim.protocol import run_repair_trials
from wstsim.storage import StorageConfig, mds_encode, mds_reconstruct, repair_node

from conftest import amp_of, codeword_one, decode_one, transmit_one, wstsim_env

F = Fraction
MC_SEED = 42


def _passed(name: str) -> None:
    print(f"{name}: PASS", flush=True)


def test_ac1_fig1_reproduction_exact():
    start = time.perf_counter()
    opt = dmt_group(10, 10)
    prop = dmt_group(10, 2)
    tdma = dmt_group(10, 1)
    # all three start at diversity 2
    assert opt(0) == prop(0) == tdma(0) == 2
    # TDMA dies at r = 1/10
    assert tdma == DmtCurve(((F(0), F(2)), (F(1, 10), F(0))))
    # proposed scheme is exactly 2 - 10r on [0, 1/5]
    assert prop == DmtCurve(((F(0), F(2)), (F(1, 5), F(0))))
    for i in range(21):
        r = F(i, 100)
        assert prop(r) == 2 - 10 * r
    # optimal curve: 2 - 2r up to the exact crossing 2/11, then 18 - 90r
    assert opt == DmtCurve(((F(0), F(2)), (F(2, 11), F(18, 11)), (F(1, 5), F(0))))
    for i in range(21):
        r = F(i, 100)
        assert opt(r) == (2 - 2 * r if r <= F(2, 11) else 18 - 90 * r)
    # figure ordering
    for i in range(101):
        r = F(i, 500)
        assert tdma(r) <= prop(r) <= opt(r)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"AC-1 fig-1 exact reproduction ({elapsed:.3f}s)")


def test_ac2_algebra_suite():
    start = time.perf_counter()
    for k, rho in zip((1, 2, 3), ROOTS):
        assert abs(rho - 2 * math.cos(2 * math.pi * k / 7)) < 1e-12
        assert abs(min_poly_value(rho)) < 1e-12
    rng = np.random.default_rng(MC_SEED)
    failures = 0
    for _ in range(10**4):
        c = rng.integers(-100, 101, size=12).tolist()
        a = FieldElement(*c[:6])
        b = FieldElement(*c[6:])
        ta = apply_tau(a, 1)
        ok = (
            apply_tau(a + b, 1) == ta + apply_tau(b, 1)
            and apply_tau(a * b, 1) == ta * apply_tau(b, 1)
            and apply_tau(apply_tau(ta, 1), 1) == a
        )
        try:
            trace_norm(a)  # raises unless trace and norm are Gaussian integers
        except ArithmeticError:
            ok = False
        j = int(rng.integers(3))
        ok = ok and abs(embed(ta, j) - embed(a, (j + 1) % 3)) < 1e-9
        failures += not ok
    assert failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(f"AC-2 algebra suite, 1e4 randomized cases, 0 failures ({elapsed:.1f}s)")


def test_ac3_decoder_exactness():
    start = time.perf_counter()
    amp = amp_of(10.0)
    mismatches = 0
    for t in range(1000):
        rng = trial_rng(MC_SEED, t)
        p1, p2 = lift(random_fragment(rng, 2), 2), lift(random_fragment(rng, 2), 2)
        codeword = codeword_one([p1, p2], 2)
        h, w = draw_session(rng, 2, 1, [2], 3)
        received = transmit_one(codeword, h, w[0], amp)
        a = decode_one(received, h, amp, 2, mode="sphere")
        b = decode_one(received, h, amp, 2, mode="ml")
        same = a.coordinates == b.coordinates and abs(a.metric - b.metric) <= 1e-9
        mismatches += not same
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(f"AC-3 sphere == ML oracle on 1000 noisy instances ({elapsed:.1f}s)")


def test_ac4_outage_slope_validation():
    grid = (10.0, 15.0, 20.0, 25.0)
    trials = 10**6
    cases = [
        ("tdma r=0 offset=1", OutageSpec("tdma", 10, F(0), 1.0, grid, trials, MC_SEED), 1.7, 2.3),
        ("pair r=1/20 K=10", OutageSpec("pair", 10, F(1, 20), 0.0, grid, trials, MC_SEED), 1.1, 1.9),
        ("full-mac K=2 r=0 offset=1", OutageSpec("full-mac", 2, F(0), 1.0, grid, trials, MC_SEED), 1.6, 2.4),
    ]
    for name, spec, lo, hi in cases:
        start = time.perf_counter()
        est = run_outage_sweep(spec)
        elapsed = time.perf_counter() - start
        assert est.slope is not None, f"{name}: no fit"
        assert lo <= est.slope.d_hat <= hi, f"{name}: d_hat={est.slope.d_hat:.3f}"
        assert elapsed < 600.0
        _passed(f"AC-4 {name}: d_hat={est.slope.d_hat:.3f} in [{lo}, {hi}] ({elapsed:.1f}s)")


def test_ac5_lift_bijectivity():
    start = time.perf_counter()
    for m, total in ((2, 64), (4, 4096)):
        images = set()
        for v in range(1 << (3 * m)):
            assert unlift(levels(v, m), m) == v
            images.add(lift(v, m))
        assert len(images) == total
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"AC-5 lift bijective at m=2 (64) and m=4 (4096) ({elapsed:.2f}s)")


def test_ac6_end_to_end_repair():
    start = time.perf_counter()
    cfg = StorageConfig(6, 3, d=5, fragment_bits=24)
    snr_grid = (10.0, 15.0, 20.0, 25.0, 30.0)
    trials = 1000
    cells = []
    # one range over the whole grid: trial t of point i has index i * trials + t
    counts = _repair_range(((cfg, 2, "pair", "sphere", False), MC_SEED, snr_grid, trials, 0, trials))
    for db, row in zip(snr_grid, counts, strict=True):
        sessions, sess_err, shares, share_fail = (int(v) for v in row[:4])
        cells.append(
            {
                "snr_db": db,
                "sessions": sessions,
                "sess_err": sess_err,
                "share_fail_rate": share_fail / shares,
                "wilson": wilson_interval(share_fail, shares),
            }
        )
    # share failure rate non-increasing, modulo overlapping Wilson intervals
    for lo_cell, hi_cell in zip(cells, cells[1:]):
        increased = hi_cell["share_fail_rate"] > lo_cell["share_fail_rate"]
        separated = hi_cell["wilson"][0] > lo_cell["wilson"][1]
        assert not (increased and separated), (lo_cell, hi_cell)
    # forced noiseless channel: no failures of any kind
    amps = np.full(50, amp_of(20.0))
    for res in run_repair_trials(cfg, 2, amps, "pair", "sphere", MC_SEED, range(50), noiseless=True):
        assert res.repaired_share_ok and res.shares_failed == 0 and res.sessions_errored == 0
    # session-error slope between 20 and 30 dB against the analytic d1(0) = 2
    # (empty cells are excluded by the estimator's stated rule)
    tail = [c for c in cells if 20.0 <= c["snr_db"] <= 30.0]
    fit = estimate_slope(
        [c["snr_db"] for c in tail], [c["sess_err"] / c["sessions"] for c in tail]
    )
    assert 1.3 <= fit.d_hat <= 2.7, fit
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _passed(
        f"AC-6 repair sweep: share-fail monotone, noiseless clean, "
        f"session slope {fit.d_hat:.2f} in [1.3, 2.7] ({elapsed:.0f}s)"
    )


def test_ac7_mds_property():
    start = time.perf_counter()
    rng = np.random.default_rng(MC_SEED)
    cfg = StorageConfig(5, 3, d=4)
    for _ in range(100):
        file = rng.bytes(int(rng.integers(1, 60)))
        shares = mds_encode(file, cfg)
        for subset in itertools.combinations(shares, 3):
            assert mds_reconstruct(list(subset), cfg) == file
        lost = int(rng.integers(5))
        helpers = [s for s in shares if s.node_id != lost][:4]
        assert repair_node(lost, helpers, cfg).fragment == shares[lost].fragment
    cfg = StorageConfig(10, 5, d=7)
    for _ in range(100):
        file = rng.bytes(int(rng.integers(1, 120)))
        shares = mds_encode(file, cfg)
        idx = rng.choice(10, size=5, replace=False)
        assert mds_reconstruct([shares[i] for i in idx], cfg) == file
        lost = int(rng.integers(10))
        helpers = [s for s in shares if s.node_id != lost][:7]
        assert repair_node(lost, helpers, cfg).fragment == shares[lost].fragment
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(f"AC-7 MDS exhaustive (5,3) + random (10,5), repair byte-identical ({elapsed:.1f}s)")


def test_ac8_determinism_across_runs_and_workers(tmp_path):
    def run(out_dir, *args):
        out_dir.mkdir(exist_ok=True)
        res = subprocess.run(
            [sys.executable, "-m", "wstsim", *args, "--out-dir", str(out_dir)],
            env=wstsim_env(),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert res.returncode == 0, res.stderr
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }

    commands = {
        "dmt": (["dmt", "--K", "10", "--grid", "41"], ["dmt", "--K", "10", "--grid", "41"]),
        "outage": (
            ["outage", "--scheme", "pair", "--K", "10", "--r", "0.05", "--snr-grid",
             "5:15:5", "--trials", "40000", "--seed", "11", "--workers", "1"],
            ["outage", "--scheme", "pair", "--K", "10", "--r", "0.05", "--snr-grid",
             "5:15:5", "--trials", "40000", "--seed", "11", "--workers", "2"],
        ),
        "simulate": (
            ["simulate", "--m", "2", "--snr-grid", "10:14:4", "--trials", "120",
             "--seed", "5", "--workers", "1"],
            ["simulate", "--m", "2", "--snr-grid", "10:14:4", "--trials", "120",
             "--seed", "5", "--workers", "2"],
        ),
        "repair": (
            ["repair", "--snr-grid", "15:20:5", "--trials", "40", "--seed", "4",
             "--workers", "1"],
            ["repair", "--snr-grid", "15:20:5", "--trials", "40", "--seed", "4",
             "--workers", "2"],
        ),
    }
    for name, (first, second) in commands.items():
        hashes_a = run(tmp_path / f"{name}_a", *first)
        hashes_b = run(tmp_path / f"{name}_b", *second)
        assert hashes_a == hashes_b, f"{name} output differs"
    _passed("AC-8 byte-identical outputs across reruns and worker counts")
