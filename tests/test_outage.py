import math
from fractions import Fraction

import numpy as np
import pytest

from wstsim import outage
from wstsim.channel import SnrPoint, draw_cn, trial_rng
from wstsim.outage import (
    InsufficientSamplesError,
    OutageSpec,
    estimate_slope,
    full_mac_outage_reference,
    outage_trial_full_mac,
    outage_trial_pair,
    outage_trial_tdma,
    run_outage_sweep,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# trial predicates
# ---------------------------------------------------------------------------


def test_huge_snr_never_in_outage():
    rng = trial_rng(1)
    snr = SnrPoint(120.0)  # snr_linear = 1e12
    chans = draw_cn(rng, (1000, 2, 2))
    assert not outage_trial_pair(chans, snr, 10, Fraction(1, 100), 0.0).any()
    assert not outage_trial_tdma(chans[:, :, 0], snr, 10, Fraction(1, 100), 0.0).any()


def test_zero_channel_always_in_outage():
    snr = SnrPoint(20.0)
    assert outage_trial_pair(np.zeros((2, 2)), snr, 10, Fraction(0), 1.0)
    assert outage_trial_tdma(np.zeros(2), snr, 10, Fraction(0), 1.0)
    assert outage_trial_full_mac(np.zeros((2, 3)), snr, 3, Fraction(0), 1.0)


def test_tdma_accepts_column_vector_shape():
    rng = trial_rng(2)
    flat = draw_cn(rng, (100, 2))
    col = flat[..., None]
    snr = SnrPoint(5.0)
    a = outage_trial_tdma(flat, snr, 4, Fraction(1, 10), 0.0)
    b = outage_trial_tdma(col, snr, 4, Fraction(1, 10), 0.0)
    assert np.array_equal(a, b)


def test_tdma_zero_db_closed_form():
    # at snr_linear = 1 and offset 1 bit the outage event is ||h||^2 < 1,
    # and ||h||^2 is Erlang(2): P = 1 - e^-1 * (1 + 1)
    expected = 1.0 - math.exp(-1.0) * 2.0
    rng = trial_rng(3)
    chans = draw_cn(rng, (200000, 2))
    flags = outage_trial_tdma(chans, SnrPoint(0.0), 5, Fraction(0), 1.0)
    p_hat = float(flags.mean())
    assert 0.0 < p_hat < 1.0
    assert abs(p_hat - expected) < 4 * math.sqrt(expected * (1 - expected) / 200000)


def test_full_mac_k1_reduces_to_tdma_at_gain_r():
    rng = trial_rng(4)
    chans = draw_cn(rng, (5000, 2, 1))
    snr = SnrPoint(8.0)
    mac = outage_trial_full_mac(chans, snr, 1, Fraction(1, 4), 0.5)
    # K=1 leaves a single subset constraint at rate r (not K*r)
    tdma = outage_trial_tdma(chans[..., 0], snr, 1, Fraction(1, 4), 0.5)
    assert np.array_equal(mac, tdma)


def test_outage_monotone_in_snr_fixed_channel():
    # at r = 0 the attempted rate is the constant offset, so capacity
    # monotonicity makes the outage flag non-increasing in SNR
    rng = trial_rng(5)
    chan = draw_cn(rng, (500, 2, 2))
    flags = [
        outage_trial_full_mac(chan, SnrPoint(db), 2, Fraction(0), 1.0)
        for db in (0.0, 5.0, 10.0, 15.0, 20.0)
    ]
    assert flags[0].any()  # some channels start in outage
    for lo, hi in zip(flags, flags[1:]):
        assert not (~lo & hi).any()  # outage can only switch off as SNR grows


def test_full_mac_guard():
    with pytest.raises(ValueError):
        outage_trial_full_mac(np.zeros((2, 13)), SnrPoint(10.0), 13, Fraction(0), 1.0)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 7, 10, 12])
def test_full_mac_fast_path_equals_reference(K):
    rng = trial_rng(8, K)
    chans = draw_cn(rng, (512, 2, K))
    # the reference costs ~4,000 Python-level subset passes per call at K = 12
    for db in (10.0, 60.0) if K == 12 else (-10.0, 10.0, 30.0, 60.0):
        snr = SnrPoint(db)
        for r, offset in ((Fraction(0), 1.0), (Fraction(1, 20), 0.0), (Fraction(1, 4), -0.5), (Fraction(1, 2), 2.0)):
            fast = outage_trial_full_mac(chans, snr, K, r, offset)
            ref = full_mac_outage_reference(chans, snr, K, r, offset)
            assert fast.dtype == bool and fast.shape == (512,)
            assert np.array_equal(fast, ref), (db, r, offset)


def test_full_mac_scalar_input_returns_bool():
    chans = draw_cn(trial_rng(9), (20, 2, 3))
    snr = SnrPoint(5.0)
    for h in chans:
        flag = outage_trial_full_mac(h, snr, 3, Fraction(1, 4), 0.5)
        assert isinstance(flag, bool)
        assert flag == full_mac_outage_reference(h, snr, 3, Fraction(1, 4), 0.5)


def test_full_mac_exact_boundary_goes_to_reference(monkeypatch):
    # 0 dB, r = 0, 1-bit offset, one user with h = (1, 0): 1 + s|h|^2 = 2 = 2^R
    # exactly, so the margin is 0 and the row must be decided by the reference
    calls = []

    def counting_reference(chan, *args):
        calls.append(np.asarray(chan).shape)
        return full_mac_outage_reference(chan, *args)

    monkeypatch.setattr(outage, "full_mac_outage_reference", counting_reference)
    chan = np.array([[1.0 + 0j], [0.0]])
    assert outage_trial_full_mac(chan, SnrPoint(0.0), 1, Fraction(0), 1.0) is False
    assert calls == [(1, 2, 1)]


def test_full_mac_sweep_counts_match_reference_and_workers(monkeypatch):
    spec = OutageSpec("full-mac", 4, Fraction(1, 4), 0.5, (0.0, 10.0), 20000, 31)
    one = run_outage_sweep(spec, workers=1)
    two = run_outage_sweep(spec, workers=2)
    monkeypatch.setattr(outage, "outage_trial_full_mac", full_mac_outage_reference)
    ref = run_outage_sweep(spec, workers=1)
    counts = [c.outages for c in one.cells]
    assert counts == [c.outages for c in two.cells]
    assert counts == [c.outages for c in ref.cells]
    assert all(c > 0 for c in counts)


def test_full_mac_reference_guard():
    with pytest.raises(ValueError):
        full_mac_outage_reference(np.zeros((2, 13)), SnrPoint(10.0), 13, Fraction(0), 1.0)


def test_pair_dominant_constraint_is_single_user():
    # hand-built channel: user 1 deeply faded, user 2 strong, joint fine
    chan = np.array([[1e-6, 1.0], [1e-6, 1.0]], dtype=complex)
    snr = SnrPoint(20.0)
    assert outage_trial_pair(chan, snr, 10, Fraction(1, 20), 0.0)


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------


def test_slope_exact_power_law():
    snr_db = [10.0, 15.0, 20.0, 25.0]
    p = [10 ** (-2.0 * db / 10.0) for db in snr_db]
    fit = estimate_slope(snr_db, p)
    assert abs(fit.d_hat - 2.0) < 1e-12
    assert fit.stderr < 1e-12


def test_slope_ignores_intercept():
    snr_db = [10.0, 20.0, 30.0]
    for c in (0.3, 7.0):
        p = [c * 10 ** (-1.5 * db / 10.0) for db in snr_db]
        fit = estimate_slope(snr_db, p)
        assert abs(fit.d_hat - 1.5) < 1e-12


def test_slope_with_jitter():
    rng = np.random.default_rng(6)
    snr_db = [10.0, 15.0, 20.0, 25.0, 30.0]
    p = [10 ** (-1.8 * db / 10.0) * (1 + 0.05 * rng.uniform(-1, 1)) for db in snr_db]
    fit = estimate_slope(snr_db, p)
    assert abs(fit.d_hat - 1.8) < 0.1
    assert fit.stderr > 0.0


def test_slope_excludes_empty_cells():
    fit = estimate_slope([10.0, 15.0, 20.0, 25.0], [1e-2, 1e-3, 0.0, 1e-5])
    assert fit.used_points == 3
    assert fit.excluded_points == 1


def test_slope_insufficient_cells():
    with pytest.raises(InsufficientSamplesError):
        estimate_slope([10.0, 20.0], [0.0, 1e-3])


def test_wilson_interval_contains_p_hat():
    for count, trials in ((0, 10), (3, 10), (10, 10), (500, 10**6)):
        lo, hi = wilson_interval(count, trials)
        assert 0.0 <= lo <= count / trials <= hi <= 1.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_determinism_and_worker_independence():
    spec = OutageSpec("pair", 10, Fraction(1, 20), 0.0, (5.0, 10.0), 33000, 99)
    a = run_outage_sweep(spec, workers=1)
    b = run_outage_sweep(spec, workers=1)
    c = run_outage_sweep(spec, workers=2)
    assert [x.outages for x in a.cells] == [x.outages for x in b.cells]
    assert [x.outages for x in a.cells] == [x.outages for x in c.cells]


def test_sweep_reports_insufficient_statistics():
    spec = OutageSpec("tdma", 2, Fraction(0), 1.0, (60.0, 70.0), 100, 7)
    est = run_outage_sweep(spec)
    assert est.slope is None
    assert "increase trials" in est.slope_error


def test_doubling_trials_stays_inside_wilson_interval_mostly():
    # seeded smoke test of estimator consistency: extending a sweep from n
    # to 2n trials (the first n trials are a prefix) rarely exits the
    # n-trial Wilson interval
    violations = 0
    experiments = 40
    for seed in range(experiments):
        half = OutageSpec("tdma", 5, Fraction(0), 1.0, (10.0,), 20000, seed)
        full = OutageSpec("tdma", 5, Fraction(0), 1.0, (10.0,), 40000, seed)
        a = run_outage_sweep(half).cells[0]
        b = run_outage_sweep(full).cells[0]
        if not a.ci_lo <= b.p_hat <= a.ci_hi:
            violations += 1
    assert violations <= 5  # ~5 percent nominal, deterministic given seeds


def test_scheme_ordering_tdma_worse_than_pair():
    # d0 <= d1 must show up at finite SNR: TDMA outage dominates the pair
    # scheme at equal (r, offset, SNR) wherever the intervals separate
    grid = (10.0, 15.0, 20.0)
    trials = 10**6
    tdma = run_outage_sweep(OutageSpec("tdma", 10, Fraction(1, 20), 0.0, grid, trials, 17))
    pair = run_outage_sweep(OutageSpec("pair", 10, Fraction(1, 20), 0.0, grid, trials, 17))
    for t_cell, p_cell in zip(tdma.cells, pair.cells):
        assert t_cell.p_hat >= p_cell.p_hat
        assert t_cell.ci_lo > p_cell.ci_hi  # separated, not just ordered


def test_spec_validation():
    with pytest.raises(ValueError):
        OutageSpec("bogus", 2, Fraction(0), 1.0, (10.0,), 100, 0)
    with pytest.raises(ValueError):
        OutageSpec("pair", 0, Fraction(0), 1.0, (10.0,), 100, 0)
    with pytest.raises(ValueError):
        OutageSpec("pair", 2, Fraction(0), 1.0, (20.0, 10.0), 100, 0)
    with pytest.raises(ValueError):
        OutageSpec("full-mac", 13, Fraction(0), 1.0, (10.0,), 100, 0)
