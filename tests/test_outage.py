import math
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from wstsim import outage
from wstsim.channel import draw_cn, snr_linear, trial_rng
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
    snr = snr_linear(120.0)  # snr_linear = 1e12
    chans = draw_cn(rng, (1000, 2, 2))
    assert not outage_trial_pair(chans, snr, 10, Fraction(1, 100), 0.0).any()
    assert not outage_trial_tdma(chans[:, :, 0], snr, 10, Fraction(1, 100), 0.0).any()


def test_zero_channel_always_in_outage():
    snr = snr_linear(20.0)
    assert outage_trial_pair(np.zeros((1, 2, 2)), snr, 10, Fraction(0), 1.0).tolist() == [True]
    assert outage_trial_tdma(np.zeros((1, 2)), snr, 10, Fraction(0), 1.0).tolist() == [True]
    assert outage_trial_full_mac(np.zeros((1, 2, 3)), snr, 3, Fraction(0), 1.0).tolist() == [True]


@pytest.mark.parametrize(
    "predicate,lone,unit_axis",
    [
        (outage_trial_tdma, (2,), (4, 2, 1)),
        (outage_trial_pair, (2, 2), (4, 2, 2, 1)),
        (outage_trial_full_mac, (2, 3), (4, 2, 3, 1)),
        (full_mac_outage_reference, (2, 3), (4, 2, 3, 1)),
    ],
    ids=["tdma", "pair", "full-mac", "reference"],
)
def test_predicates_take_a_batch_only(predicate, lone, unit_axis):
    # a lone channel, a scalar and a trailing unit axis are refused: each
    # predicate takes N channels, (N, 2) for TDMA and (N, 2, g) otherwise
    snr = snr_linear(5.0)
    for shape in (lone, (), unit_axis):
        with pytest.raises(ValueError, match="batch"):
            predicate(np.ones(shape, dtype=complex), snr, 3, Fraction(1, 10), 0.0)
    flags = predicate(np.ones((4, *lone), dtype=complex), snr, 3, Fraction(1, 10), 0.0)
    assert flags.dtype == bool and flags.shape == (4,)


def test_tdma_zero_db_closed_form():
    # at snr_linear = 1 and offset 1 bit the outage event is ||h||^2 < 1,
    # and ||h||^2 is Erlang(2): P = 1 - e^-1 * (1 + 1)
    expected = 1.0 - math.exp(-1.0) * 2.0
    rng = trial_rng(3)
    chans = draw_cn(rng, (200000, 2))
    flags = outage_trial_tdma(chans, snr_linear(0.0), 5, Fraction(0), 1.0)
    p_hat = float(flags.mean())
    assert 0.0 < p_hat < 1.0
    assert abs(p_hat - expected) < 4 * math.sqrt(expected * (1 - expected) / 200000)


def test_full_mac_k1_reduces_to_tdma_at_gain_r():
    rng = trial_rng(4)
    chans = draw_cn(rng, (5000, 2, 1))
    snr = snr_linear(8.0)
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
        outage_trial_full_mac(chan, snr_linear(db), 2, Fraction(0), 1.0)
        for db in (0.0, 5.0, 10.0, 15.0, 20.0)
    ]
    assert flags[0].any()  # some channels start in outage
    for lo, hi in zip(flags, flags[1:]):
        assert not (~lo & hi).any()  # outage can only switch off as SNR grows


def test_full_mac_guard():
    with pytest.raises(ValueError):
        outage_trial_full_mac(np.zeros((1, 2, 13)), snr_linear(10.0), 13, Fraction(0), 1.0)


FULL_MAC_KS = [1, 2, 3, 4, 7, 10, 12]
FULL_MAC_RATES = ((Fraction(0), 1.0), (Fraction(1, 20), 0.0), (Fraction(1, 4), -0.5), (Fraction(1, 2), 2.0))


def full_mac_grid(K):
    """512 draws per K and the (SNR, r, offset) points they are tested at."""
    chans = draw_cn(trial_rng(8, K), (512, 2, K))
    # the reference costs ~4,000 Python-level subset passes per call at K = 12
    for db in (10.0, 60.0) if K == 12 else (-10.0, 10.0, 30.0, 60.0):
        for r, offset in FULL_MAC_RATES:
            yield chans, snr_linear(db), r, offset


@pytest.mark.parametrize("K", FULL_MAC_KS)
def test_full_mac_fast_path_equals_reference(K):
    for chans, snr, r, offset in full_mac_grid(K):
        fast = outage_trial_full_mac(chans, snr, K, r, offset)
        ref = full_mac_outage_reference(chans, snr, K, r, offset)
        assert fast.dtype == bool and fast.shape == (512,)
        assert np.array_equal(fast, ref), (snr, r, offset)


@pytest.mark.parametrize("K", FULL_MAC_KS)
def test_full_mac_walk_sign_equals_reference(K):
    # most rows are settled before the walk, so test the walk on every row
    decided = rows = 0
    for chans, snr, r, offset in full_mac_grid(K):
        rate = float(r) * math.log2(snr) + offset
        margin = outage._full_mac_margin(chans, snr, K, rate)
        ref = full_mac_outage_reference(chans, snr, K, r, offset)
        sure = np.abs(margin) > outage._MARGIN_TOL
        assert np.array_equal((margin < 0.0)[sure], ref[sure]), (snr, r, offset)
        decided += int(sure.sum())
        rows += len(chans)
    assert decided > 0.99 * rows


def prefix_tree_margin(h, s, K, rate):
    """_full_mac_margin as a walk over single subsets: depth-first over the
    prefix tree of ascending user lists, each subset's (1+a, 1+b, c, d) its
    parent's plus one user's column, one (4, N) slab per depth."""
    n = h.shape[0]
    cols = outage._user_terms(h, s).transpose(1, 0, 2).copy()
    thresh = np.exp2(np.arange(K + 1) * rate)
    slab = np.empty((K + 1, 4, n))
    slab[0] = ((1.0,), (1.0,), (0.0,), (0.0,))
    worst = np.full(n, -np.inf)
    sq, ratio, det = np.empty((2, n)), np.empty(n), np.empty(n)
    stack = [(0, 0)]
    while stack:
        depth, k = stack.pop()
        if k + 1 < K:
            stack.append((depth, k + 1))
            stack.append((depth + 1, k + 1))
        child = slab[depth + 1]
        np.add(slab[depth], cols[k], out=child)
        np.square(child[2:], out=sq)
        np.add(sq[0], sq[1], out=ratio)
        np.add(ratio, thresh[depth + 1], out=ratio)
        np.multiply(child[0], child[1], out=det)
        np.divide(ratio, det, out=ratio)
        np.maximum(worst, ratio, out=worst)
    return 1.0 - worst


def table_users(n, K):
    """The b of _full_mac_margin for n rows: the largest b <= K with
    2^(b+1) n within the budget, or 0."""
    return max([b for b in range(K + 1) if 2 ** (b + 1) * n <= outage._WALK_BUDGET] or [0])


@pytest.mark.parametrize("K", range(1, 13))
def test_full_mac_margin_bitwise_equals_prefix_tree_walk(K):
    budget = outage._WALK_BUDGET
    mid = K // 2
    # the largest row counts with b = K and b = mid (the budget boundary),
    # one row past the latter, and a count past budget / 4 for b = 0
    counts = {budget >> (K + 1) or 1, budget >> (mid + 1), (budget >> (mid + 1)) + 1, budget // 4 + 1}
    bs = {table_users(n, K) for n in counts}
    assert {0, K} <= bs and (K == 1 or any(0 < b < K for b in bs))
    for n in sorted(counts):
        h = draw_cn(trial_rng(12, K, n), (n, 2, K))
        h[: n // 4, :, -1] = h[: n // 4, :, 0]  # a repeated user
        h[n // 4 : n // 2, :, 0] = 0.0  # a zero column
        for db in (10.0, 60.0) if K >= 10 else (-10.0, 10.0, 30.0, 60.0):
            s = snr_linear(db)
            for r, offset in FULL_MAC_RATES:
                rate = float(r) * math.log2(s) + offset
                got = outage._full_mac_margin(h, s, K, rate)
                want = prefix_tree_margin(h, s, K, rate)
                assert got.shape == (n,)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, db, r, offset)


def _brute_force_min_dets(h, s, K):
    """Minimum det(I + s H_S H_S^H) over the subsets of each size, (K, N)."""
    best = np.full((K, h.shape[0]), np.inf)
    for size in range(1, K + 1):
        for subset in combinations(range(K), size):
            sub = h[..., list(subset)]
            gram = np.eye(2) + s * np.einsum("nik,njk->nij", sub, sub.conj())
            best[size - 1] = np.minimum(best[size - 1], np.linalg.det(gram).real)
    return best


@pytest.mark.parametrize("K", [1, 2, 3, 4, 6])
def test_full_mac_prepass_bound_below_every_subset(K):
    h = draw_cn(trial_rng(10, K), (400, 2, K))
    h[:50, :, -1] = h[:50, :, 0]  # a repeated user: p_kl cancels to ~0
    h[50:100, :, 0] = 0.0
    for db in (-10.0, 10.0, 30.0):
        s = snr_linear(db)
        # a rate of -inf makes every threshold 2^{j R} zero, so the gaps are g_j
        bound, tol = outage._subset_bound_gaps(outage._user_terms(h, s), -math.inf)
        exact = _brute_force_min_dets(h, s, K)
        slack = 1e-12 * exact[-1]
        assert bound.shape == exact.shape and tol.shape == (400,)
        assert (bound <= exact + slack).all(), db
        # sizes 1 and K are exact
        assert np.allclose(bound[[0, -1]], exact[[0, -1]], rtol=1e-12, atol=0.0), db


def test_full_mac_prepass_outcomes_all_occur(monkeypatch):
    # the three ways a row is decided: the bound clears it, the exact size-1
    # or size-K check puts it in outage, or the walk decides it
    walked = []
    walk = outage._full_mac_margin

    def counting_walk(h, *args):
        walked.append(len(h))
        return walk(h, *args)

    monkeypatch.setattr(outage, "_full_mac_margin", counting_walk)
    seen = set()
    for K in FULL_MAC_KS:
        for chans, snr, r, offset in full_mac_grid(K):
            walked.clear()
            flags = outage_trial_full_mac(chans, snr, K, r, offset)
            n_walked = sum(walked)
            if n_walked:
                seen.add("walked")
            if int(flags.sum()) > n_walked:
                seen.add("outage before the walk")
            if int((~flags).sum()) > n_walked:
                seen.add("cleared before the walk")
    assert seen == {"walked", "outage before the walk", "cleared before the walk"}


def test_full_mac_adversarial_rows_equal_reference():
    K = 4
    h = draw_cn(trial_rng(11), (600, 2, K))
    h[:200, :, 1] = h[:200, :, 0]  # two identical users: p_01 is ~0 up to rounding
    h[200:300, :, 2:] = h[200:300, :, :2]  # two repeated pairs
    h[300:400, :, 3] = 0.0  # a zero column: g_1 = 1 exactly
    rates = FULL_MAC_RATES + ((Fraction(0), 0.0), (Fraction(1, 10), -1.0))
    for db in (-10.0, 0.0, 10.0, 20.0, 40.0):
        snr = snr_linear(db)
        for r, offset in rates:
            fast = outage_trial_full_mac(h, snr, K, r, offset)
            ref = full_mac_outage_reference(h, snr, K, r, offset)
            assert np.array_equal(fast, ref), (db, r, offset)


def test_full_mac_exact_boundary_goes_to_reference(monkeypatch):
    # 0 dB, r = 0, 1-bit offset, one user with h = (1, 0): 1 + s|h|^2 = 2 = 2^R
    # exactly, so the margin is 0 and the row must be decided by the reference
    calls = []

    def counting_reference(chan, *args):
        calls.append(np.asarray(chan).shape)
        return full_mac_outage_reference(chan, *args)

    monkeypatch.setattr(outage, "full_mac_outage_reference", counting_reference)
    chan = np.array([[[1.0 + 0j], [0.0]]])
    assert outage_trial_full_mac(chan, snr_linear(0.0), 1, Fraction(0), 1.0).tolist() == [False]
    assert calls == [(1, 2, 1)]


def test_full_mac_sweep_counts_match_reference_and_workers(monkeypatch):
    spec = OutageSpec("full-mac", 4, Fraction(1, 4), 0.5, (0.0, 10.0), 20000, 31)
    one = run_outage_sweep(spec, workers=1)
    two = run_outage_sweep(spec, workers=2)
    monkeypatch.setattr(outage, "outage_trial_full_mac", full_mac_outage_reference)
    ref = run_outage_sweep(spec, workers=1)
    assert one == two == ref
    assert all(c > 0 for c in one)


@pytest.mark.parametrize("predicate", [outage_trial_tdma, outage_trial_pair, outage_trial_full_mac])
@pytest.mark.parametrize("K", [0, -1])
def test_predicates_reject_fewer_than_one_user(predicate, K):
    with pytest.raises(ValueError, match="K"):
        predicate(np.ones((4, 2, 1), dtype=complex), snr_linear(10.0), K, Fraction(1, 4), 1.0)


def test_full_mac_reference_guard():
    with pytest.raises(ValueError):
        full_mac_outage_reference(np.zeros((1, 2, 13)), snr_linear(10.0), 13, Fraction(0), 1.0)


def test_pair_dominant_constraint_is_single_user():
    # hand-built channel: user 1 deeply faded, user 2 strong, joint fine
    chan = np.array([[[1e-6, 1.0], [1e-6, 1.0]]], dtype=complex)
    snr = snr_linear(20.0)
    assert outage_trial_pair(chan, snr, 10, Fraction(1, 20), 0.0).tolist() == [True]


# ---------------------------------------------------------------------------
# full-MAC workspace
# ---------------------------------------------------------------------------


def allocating_user_terms(h, s):
    """The terms as _user_terms computed them in fresh arrays, kept as the
    oracle of the workspace version."""
    h0, h1 = h[:, 0, :].T, h[:, 1, :].T
    terms = np.empty((4,) + h0.shape)
    a, b, c, d = terms
    for out, x in ((a, h0), (b, h1)):
        np.square(x.real, out=out)
        out += np.square(x.imag, out=d)  # d is scratch until it is written below
        out *= s
    cross = h0 * h1.conj()
    np.multiply(cross.real, s, out=c)
    np.multiply(cross.imag, s, out=d)
    return terms


def allocating_subset_bound_gaps(terms, rate):
    """The gaps as _subset_bound_gaps computed them in fresh arrays: each
    p_kl with its c and d products doubled after rounding, and a strided
    sort along axis 0."""
    a, b, c, d = terms
    K, n = a.shape
    tol = (1.0 + a.sum(axis=0)) * (1.0 + b.sum(axis=0))
    tol *= outage._MARGIN_TOL
    w = np.add(a, b)
    pairs = np.empty((K * (K - 1) // 2, n))
    tmp = np.empty((K - 1, n))
    lo = 0
    for k in range(K - 1):
        hi = lo + K - 1 - k
        blk, t = pairs[lo:hi], tmp[: hi - lo]
        np.multiply(a[k + 1 :], b[k], out=blk)
        np.multiply(b[k + 1 :], a[k], out=t)
        blk += t
        for x in (c, d):
            np.multiply(x[k + 1 :], x[k], out=t)
            t *= 2.0
            blk -= t
        lo = hi
    for x in (w, pairs):
        x.sort(axis=0)
        for i in range(1, x.shape[0]):
            np.add(x[i - 1], x[i], out=x[i])
    thresh = np.exp2(np.arange(1, K + 1) * rate)
    for j in range(1, K + 1):
        if j > 1:
            w[j - 1] += pairs[j * (j - 1) // 2 - 1]
        w[j - 1] += 1.0
        w[j - 1] -= thresh[j - 1]
    return w, tol


@pytest.mark.parametrize("K", range(1, 13))
def test_subset_bound_gaps_equal_the_allocating_oracle(K):
    # from the same terms the gaps are the oracle's bit for bit: each p_kl is
    # the same double and the sort only moves values; the terms themselves
    # may differ from the oracle's complex product in the last bits, which
    # leaves each g_j (a rate of -inf zeroes every threshold) within the
    # 200u (1+A)(1+B) of the rounding bound
    u = 2.0**-53
    for n in (1, 7, 512):
        h = draw_cn(trial_rng(13, K, n), (n, 2, K))
        h[: n // 4, :, -1] = h[: n // 4, :, 0]  # a repeated user
        h[n // 4 : n // 2, :, 0] = 0.0  # a zero column
        for db in (-10.0, 10.0, 30.0, 60.0):
            s = snr_linear(db)
            terms = allocating_user_terms(h, s)
            A, B = terms[:2].sum(axis=1)
            for r, offset in FULL_MAC_RATES:
                rate = float(r) * math.log2(s) + offset
                want, want_tol = allocating_subset_bound_gaps(terms.copy(), rate)
                got, tol = outage._subset_bound_gaps(terms.copy(), rate)
                assert got.shape == (K, n) and np.array_equal(tol, want_tol)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, db, r, offset)
            want, _ = allocating_subset_bound_gaps(terms.copy(), -math.inf)
            got, _ = outage._subset_bound_gaps(outage._user_terms(h, s), -math.inf)
            assert (np.abs(got - want) <= 200 * u * (1 + A) * (1 + B)).all(), (n, db)


WORKSPACE_SNR_DB = {1: 0.0, 2: 5.0, 3: 10.0, 10: 15.0, 12: 10.0}


@lru_cache(maxsize=None)
def workspace_base(K, form):
    """2,048 draws for K users, complex or their real parts, with reference
    flags at the K's SNR point, r = 1/20 and a 1-bit offset."""
    h = draw_cn(trial_rng(14, K), (2048, 2, K))
    if form == "real":
        h = np.ascontiguousarray(h.real)
    flags = full_mac_outage_reference(h, snr_linear(WORKSPACE_SNR_DB[K]), K, Fraction(1, 20), 1.0)
    return h, flags


def workspace_case(K, n, form, rng):
    """n rows picked from the K's base draws, as a contiguous complex, real
    or non-contiguous complex array, and their reference flags."""
    h, flags = workspace_base(K, "real" if form == "real" else "complex")
    pick = rng.integers(0, len(h), n)
    rows = h[pick]
    if form == "strided":
        # every value at a 32-byte stride: no float64 view of it exists
        padded = np.zeros(rows.shape + (2,), dtype=complex)
        padded[..., 0] = rows
        rows = padded[..., 0]
        assert not rows.flags.c_contiguous
    return rows, flags[pick]


def full_mac_flags(h, K):
    return outage_trial_full_mac(h, snr_linear(WORKSPACE_SNR_DB[K]), K, Fraction(1, 20), 1.0)


def test_interleaved_workspace_calls_equal_reference_and_fresh_workspace(monkeypatch):
    rng = np.random.default_rng(15)
    cases = [(K, n, form) for K in WORKSPACE_SNR_DB for n in (1, 7, 512, 2048, 16384)
             for form in ("complex", "real", "strided")]
    # shuffled, so each size and K follows others that left the buffers
    # larger, smaller or shaped for another K
    for i in rng.permutation(len(cases)):
        K, n, form = cases[i]
        h, want = workspace_case(K, n, form, rng)
        got = full_mac_flags(h, K)
        with monkeypatch.context() as m:
            m.setattr(outage, "_workspace", outage._Workspace())
            fresh = full_mac_flags(h, K)
        assert got.shape == (n,) and np.array_equal(got, want), (K, n, form)
        assert np.array_equal(fresh, want), (K, n, form)


def test_full_mac_result_is_not_a_workspace_view():
    rng = np.random.default_rng(16)
    first, _ = workspace_case(10, 2048, "complex", rng)
    flags = full_mac_flags(first, 10)
    kept = flags.copy()
    buffers = outage._workspace.buffers
    assert buffers and not any(np.shares_memory(flags, buf) for buf in buffers.values())
    for K in (10, 12):
        full_mac_flags(workspace_case(K, 2048, "complex", rng)[0], K)
    assert np.array_equal(flags, kept)


def test_concurrent_threads_get_reference_flags():
    # more threads than cores, switching often: a workspace shared between
    # them would mix one thread's block into another's
    cases = [workspace_case(K, 2048, "complex", np.random.default_rng(17 + K)) + (K,) for K in (3, 10, 12)]
    start = threading.Barrier(len(cases))
    done, wrong = [], []

    def run(h, want, K):
        start.wait()
        for _ in range(15):
            if not np.array_equal(full_mac_flags(h, K), want):
                wrong.append(K)
        done.append(K)

    threads = [threading.Thread(target=run, args=case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [3, 10, 12] and wrong == []


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
    assert a == b == c
    assert len(a) == 2 and all(type(x) is int for x in a)


@pytest.mark.parametrize("scheme,K", [("tdma", 10), ("pair", 10), ("full-mac", 3)])
def test_sweep_buffer_reuse_equals_fresh_block_draws(scheme, K):
    # two blocks per SNR point, the second one smaller, all drawn into one
    # buffer: counts equal those of a fresh draw per block
    trials = outage.BLOCK_TRIALS + 300
    spec = OutageSpec(scheme, K, Fraction(1, 4), 1.0, (5.0, 10.0), trials, 3)
    predicate = {"tdma": outage_trial_tdma, "pair": outage_trial_pair,
                 "full-mac": outage_trial_full_mac}[scheme]
    expected = []
    for snr_idx, db in enumerate(spec.snr_grid_db):
        count = 0
        for block_idx, size in enumerate((outage.BLOCK_TRIALS, 300)):
            shape = {"tdma": (size, 2), "pair": (size, 2, 2)}.get(scheme, (size, 2, K))
            chan = draw_cn(trial_rng(3, snr_idx, block_idx), shape)
            count += int(predicate(chan, snr_linear(db), K, spec.r, 1.0).sum())
        expected.append(count)
    for workers in (1, 2):
        assert run_outage_sweep(spec, workers) == expected


def test_sweep_reports_insufficient_statistics():
    spec = OutageSpec("tdma", 2, Fraction(0), 1.0, (60.0, 70.0), 100, 7)
    counts = run_outage_sweep(spec)
    with pytest.raises(InsufficientSamplesError, match="increase trials"):
        estimate_slope(spec.snr_grid_db, [c / spec.trials for c in counts])


def test_doubling_trials_stays_inside_wilson_interval_mostly():
    # seeded smoke test of estimator consistency: extending a sweep from n
    # to 2n trials (the first n trials are a prefix) rarely exits the
    # n-trial Wilson interval
    violations = 0
    experiments = 40
    for seed in range(experiments):
        half = OutageSpec("tdma", 5, Fraction(0), 1.0, (10.0,), 20000, seed)
        full = OutageSpec("tdma", 5, Fraction(0), 1.0, (10.0,), 40000, seed)
        (a,) = run_outage_sweep(half)
        (b,) = run_outage_sweep(full)
        ci_lo, ci_hi = wilson_interval(a, half.trials)
        if not ci_lo <= b / full.trials <= ci_hi:
            violations += 1
    assert violations <= 5  # ~5 percent nominal, deterministic given seeds


def test_scheme_ordering_tdma_worse_than_pair():
    # d0 <= d1 must show up at finite SNR: TDMA outage dominates the pair
    # scheme at equal (r, offset, SNR) wherever the intervals separate
    grid = (10.0, 15.0, 20.0)
    trials = 10**6
    tdma = run_outage_sweep(OutageSpec("tdma", 10, Fraction(1, 20), 0.0, grid, trials, 17))
    pair = run_outage_sweep(OutageSpec("pair", 10, Fraction(1, 20), 0.0, grid, trials, 17))
    for t_count, p_count in zip(tdma, pair, strict=True):
        assert t_count >= p_count
        # separated, not just ordered
        assert wilson_interval(t_count, trials)[0] > wilson_interval(p_count, trials)[1]


def test_spec_validation():
    with pytest.raises(ValueError):
        OutageSpec("bogus", 2, Fraction(0), 1.0, (10.0,), 100, 0)
    with pytest.raises(ValueError):
        OutageSpec("pair", 0, Fraction(0), 1.0, (10.0,), 100, 0)
    with pytest.raises(ValueError):
        OutageSpec("pair", 2, Fraction(0), 1.0, (20.0, 10.0), 100, 0)
    with pytest.raises(ValueError):
        OutageSpec("full-mac", 13, Fraction(0), 1.0, (10.0,), 100, 0)
