from fractions import Fraction

import numpy as np
import pytest

from wstsim.dmt import (
    DmtCurve,
    SchemeParams,
    dmt_optimal_mac,
    dmt_proposed,
    dmt_ptp,
    dmt_tdma,
    emit_fig1,
    pointwise_min,
    scale_arg,
)


def F(a, b=1):
    return Fraction(a, b)


def random_curve(rng):
    n = int(rng.integers(2, 6))
    rs = np.sort(rng.integers(1, 60, size=n - 1))
    ds = np.sort(rng.integers(0, 40, size=n))[::-1]
    pts = [(F(0), F(int(ds[0])))]
    pts += [(F(int(r), 10), F(int(d))) for r, d in zip(rs, ds[1:]) ]
    # strictly increasing r; drop duplicates
    out = [pts[0]]
    for r, d in pts[1:]:
        if r > out[-1][0]:
            out.append((r, min(d, out[-1][1])))
    return DmtCurve(tuple(out))


# ---------------------------------------------------------------------------
# point-to-point curves
# ---------------------------------------------------------------------------


def test_ptp_1x2():
    assert dmt_ptp(1, 2).breakpoints == ((F(0), F(2)), (F(1), F(0)))


def test_ptp_2x2():
    assert dmt_ptp(2, 2).breakpoints == ((F(0), F(4)), (F(1), F(1)), (F(2), F(0)))


def test_ptp_midpoint_value():
    assert dmt_ptp(2, 2)(F(1, 2)) == F(5, 2)


def test_curve_is_zero_beyond_last_breakpoint():
    assert dmt_ptp(1, 2)(F(7, 2)) == 0


def test_curve_validation():
    with pytest.raises(ValueError):
        DmtCurve(((F(1), F(1)),))  # must start at r = 0
    with pytest.raises(ValueError):
        DmtCurve(((F(0), F(1)), (F(1), F(2))))  # increasing d
    with pytest.raises(ValueError):
        dmt_ptp(0, 2)


def test_curve_canonicalization():
    # interior collinear point and trailing zeros are dropped
    c = DmtCurve(((F(0), F(2)), (F(1, 10), F(1)), (F(2, 10), F(0)), (F(3, 10), F(0))))
    assert c.breakpoints == ((F(0), F(2)), (F(2, 10), F(0)))


# ---------------------------------------------------------------------------
# argument scaling
# ---------------------------------------------------------------------------


def test_scale_arg_examples():
    c = scale_arg(dmt_ptp(1, 2), 10)
    assert c.zero_point == F(1, 10)
    assert scale_arg(dmt_ptp(1, 2), 1) == dmt_ptp(1, 2)
    assert scale_arg(dmt_ptp(1, 2), 5)(F(1, 10)) == F(1)


def test_scale_arg_composes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = random_curve(rng)
        a, b = F(3, 2), F(5)
        assert scale_arg(scale_arg(c, a), b) == scale_arg(c, a * b)


# ---------------------------------------------------------------------------
# pointwise minimum
# ---------------------------------------------------------------------------


def test_min_idempotent():
    c = dmt_ptp(2, 2)
    assert pointwise_min(c, c) == c


def test_min_crossing_inserted_exactly():
    # K=10 optimal curve: 2-2r crosses the 18-90r segment at r = 2/11
    c = dmt_optimal_mac(SchemeParams(K=10))
    assert (F(2, 11), F(18, 11)) in c.breakpoints


def test_min_crossing_against_bruteforce_intersection():
    # independent route: solve all pairwise segment intersections directly
    a = dmt_ptp(1, 2)
    b = scale_arg(dmt_ptp(10, 2), 10)
    crossings = []
    for (r1, d1), (r2, d2) in zip(a.breakpoints, a.breakpoints[1:]):
        for (s1, e1), (s2, e2) in zip(b.breakpoints, b.breakpoints[1:]):
            lo, hi = max(r1, s1), min(r2, s2)
            if lo >= hi:
                continue
            slope_a = (d2 - d1) / (r2 - r1)
            slope_b = (e2 - e1) / (s2 - s1)
            if slope_a == slope_b:
                continue
            rc = (e1 - slope_b * s1 - d1 + slope_a * r1) / (slope_a - slope_b)
            if lo < rc < hi:
                crossings.append(rc)
    assert crossings == [F(2, 11)]


def test_min_is_below_both_inputs():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = random_curve(rng), random_curve(rng)
        c = pointwise_min(a, b)
        for _ in range(100):
            r = F(int(rng.integers(0, 200)), 29)
            assert c(r) <= a(r) and c(r) <= b(r)
            assert c(r) == min(a(r), b(r))


def test_min_commutative_associative_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, b, c = (random_curve(rng) for _ in range(3))
        assert pointwise_min(a, b) == pointwise_min(b, a)
        assert pointwise_min(pointwise_min(a, b), c) == pointwise_min(a, pointwise_min(b, c))
        assert pointwise_min(a, a) == a


# ---------------------------------------------------------------------------
# scheme curves
# ---------------------------------------------------------------------------


def test_optimal_mac_k10():
    c = dmt_optimal_mac(SchemeParams(K=10, n_t=1, n_r=2))
    assert c(0) == 2
    assert c.zero_point == F(1, 5)
    assert c(F(1, 10)) == F(9, 5)  # single-user branch 2 - 2r active below 2/11


def test_optimal_mac_k1_reduces_to_ptp():
    assert dmt_optimal_mac(SchemeParams(K=1, n_t=2, n_r=2)) == dmt_ptp(2, 2)


def test_proposed_k10():
    c = dmt_proposed(SchemeParams(K=10))
    assert c(0) == 2
    assert c(F(1, 10)) == 1
    assert c(F(1, 5)) == 0
    assert c(F(1, 20)) == F(3, 2)
    # the whole curve is 2 - 10r on [0, 1/5]
    assert c.breakpoints == ((F(0), F(2)), (F(1, 5), F(0)))


def test_proposed_k2():
    c = dmt_proposed(SchemeParams(K=2))
    assert c(0) == 2
    assert c == pointwise_min(dmt_ptp(1, 2), scale_arg(dmt_ptp(2, 2), 2))


def test_proposed_requires_scheme_geometry():
    with pytest.raises(ValueError):
        dmt_proposed(SchemeParams(K=4, n_t=2, n_r=2))


def test_tdma_curves():
    c = dmt_tdma(SchemeParams(K=10))
    assert c(0) == 2
    assert c.zero_point == F(1, 10)
    assert c(F(1, 20)) == 1  # 2*(1 - 10r)
    assert dmt_tdma(SchemeParams(K=1)) == dmt_ptp(1, 2)


def test_scheme_params():
    with pytest.raises(ValueError):
        SchemeParams(K=0)


# ---------------------------------------------------------------------------
# figure table
# ---------------------------------------------------------------------------


def test_fig1_table_k10():
    rows = emit_fig1(10, 101)
    assert len(rows) == 101
    assert rows[0][1:] == (F(2), F(2), F(2))
    assert rows[-1][0] == F(1, 5)
    for r, d_opt, d_prop, d_tdma in rows:
        assert d_tdma <= d_prop <= d_opt
        if 0 < r < F(1, 5):
            # strictly better than TDMA on the interior (both hit 0 at 1/5)
            assert d_prop > d_tdma


def test_fig1_ordering_holds_on_dense_grid_for_other_k():
    for K in (2, 3, 6):
        params = SchemeParams(K=K)
        opt, prop, tdma = dmt_optimal_mac(params), dmt_proposed(params), dmt_tdma(params)
        for i in range(0, 200):
            r = F(i, 400)
            assert tdma(r) <= prop(r) <= opt(r)


def test_fig1_validation():
    with pytest.raises(ValueError):
        emit_fig1(1, 10)
    with pytest.raises(ValueError):
        emit_fig1(10, 1)
