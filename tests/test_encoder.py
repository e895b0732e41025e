import math

import numpy as np
import pytest

from conftest import embedded_row, equivalent_channel_one
from wstsim.algebra import ETA, ONE, FieldElement
from wstsim.channel import draw_cn, trial_rng
from wstsim.encoder import (
    average_row_energy,
    build_equivalent_channel,
    build_pair_codeword,
    build_tdma_codeword,
    dispersion_basis,
    normalizer,
    realify,
)
from wstsim.lift import levels, lift


def all_levels(m):
    """Every constellation point's six PAM levels (re and im of its three
    Gaussian-integer coefficients), in fragment order."""
    return [levels(v, m) for v in range(1 << (3 * m))]


def all_rows(m):
    return [lift(v, m) for v in range(1 << (3 * m))]


# ---------------------------------------------------------------------------
# codeword construction
# ---------------------------------------------------------------------------


def test_pair_codeword_of_ones():
    p = embedded_row(ONE)
    X = build_pair_codeword([p], [p], 2)
    assert X.shape == (1, 2, 3)
    assert np.allclose(X / normalizer(2), np.ones((1, 2, 3)))


def test_pair_codeword_eta_row():
    p = embedded_row(ETA)
    other = embedded_row(ONE)
    X = build_pair_codeword([p], [other], 2)
    assert np.allclose(
        X[0, 0] / normalizer(2),
        [1.246980, -0.445042, -1.801938],
        atol=1e-6,
    )


def test_tdma_codeword_of_one():
    p = embedded_row(ONE)
    X = build_tdma_codeword([p], 2)
    assert X.shape == (1, 1, 3)
    assert np.allclose(X / normalizer(2), np.ones((1, 1, 3)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_stacked_codewords_equal_per_session_bitwise(m):
    rng = np.random.default_rng(m)
    first, second = ([lift(int(v), m) for v in rng.integers(0, 1 << (3 * m), 300)] for _ in range(2))
    pairs = build_pair_codeword(first, second, m)
    singles = build_tdma_codeword(first, m)
    assert pairs.shape == (300, 2, 3) and singles.shape == (300, 1, 3)
    assert pairs.flags.c_contiguous and singles.flags.c_contiguous
    for n, (p1, p2) in enumerate(zip(first, second)):
        # each session of the stack is its own stack of one and the rows
        # times alpha, bit for bit
        assert np.array_equal(_bits(pairs[n]), _bits(build_pair_codeword([p1], [p2], m)[0]))
        assert np.array_equal(_bits(singles[n]), _bits(build_tdma_codeword([p1], m)[0]))
        assert np.array_equal(_bits(pairs[n]), _bits(normalizer(m) * np.array([p1, p2])))
        assert np.array_equal(_bits(singles[n]), _bits(normalizer(m) * np.array([p1])))


def test_dispersion_sum_reproduces_codeword_exhaustive_m2():
    basis = dispersion_basis(2)
    point_levels, rows = all_levels(2), all_rows(2)
    for v1 in range(64):
        for v2 in range(0, 64, 7):  # all v1 against a stride of v2: 64 x 10 pairs
            direct = build_pair_codeword([rows[v1]], [rows[v2]], 2)[0]
            assembled = np.zeros((2, 3), dtype=complex)
            for k, v in enumerate((v1, v2)):
                for l in range(3):
                    assembled[k] += complex(*point_levels[v][2 * l : 2 * l + 2]) * basis[l]
            assert np.max(np.abs(assembled - direct)) < 1e-12


def test_dispersion_sum_reproduces_codeword_all_pairs_m2():
    basis = dispersion_basis(2)
    rows = np.array(all_rows(2)) * normalizer(2)
    coeffs = np.array(
        [[complex(*lv[2 * l : 2 * l + 2]) for l in range(3)] for lv in all_levels(2)]
    )
    assembled = coeffs @ basis
    assert np.max(np.abs(assembled - rows)) < 1e-12


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_average_energy_is_unit_exhaustive():
    for m in (2, 4):
        rows = np.array(all_rows(m)) * normalizer(m)
        per_use = np.mean(np.sum(np.abs(rows) ** 2, axis=1)) / 3.0
        assert abs(per_use - 1.0) < 1e-9


def test_average_energy_is_unit_sampled_m6():
    rng = np.random.default_rng(5)
    from wstsim.lift import random_fragment

    rows = np.array(
        [lift(random_fragment(rng, 6), 6) for _ in range(20000)]
    ) * normalizer(6)
    per_use = np.mean(np.sum(np.abs(rows) ** 2, axis=1)) / 3.0
    assert abs(per_use - 1.0) < 0.02


def test_row_energy_value_m2():
    # per-axis QAM power 2 times mean(1 + rho^2 + rho^4) = 2 * 21/3
    assert abs(average_row_energy(2) - 14.0) < 1e-9


# ---------------------------------------------------------------------------
# difference-matrix rank (exhaustive at m=2)
# ---------------------------------------------------------------------------


def test_pair_difference_rank_exhaustive_m2():
    """Difference matrices have rank 2 except for base-field-proportional
    difference pairs.

    A nonzero difference element has nonzero norm, so a single differing row
    is nonzero in every coordinate.  When both rows differ the stacked
    difference has rank 2 unless the two difference elements are Q(i)
    multiples of one another (embeddings fix Q(i), so rows like those of
    delta and (1+i)*delta are proportional); such pairs exist in this code,
    and the exact Galois-invariance identity d1*tau(d2) == tau(d1)*d2
    characterizes them, which is what this test pins down exhaustively.
    """
    from wstsim.algebra import apply_tau

    point_levels = all_levels(2)
    seen = {}
    for a in point_levels:
        for b in point_levels:
            d = tuple(x - y for x, y in zip(a, b))
            if any(d):
                seen[d] = FieldElement(*d)
    diff_elements = list(seen.values())
    assert len(diff_elements) == 9**3 - 1
    rows = np.array(
        [[complex(v) for v in embedded_row(d)] for d in diff_elements]
    )
    # single differing row: nonzero in every coordinate
    assert np.min(np.abs(rows)) > 1e-6
    # both rows differing: vanishing 2x2 minors exactly characterize
    # base-field-proportional difference pairs
    u, v = rows[:, None, :], rows[None, :, :]
    minors = np.stack(
        [
            u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
            u[..., 0] * v[..., 2] - u[..., 2] * v[..., 0],
            u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
        ]
    )
    degenerate = np.abs(minors).max(axis=0) < 1e-6
    taus = [apply_tau(d, 1) for d in diff_elements]
    idx_i, idx_j = np.nonzero(degenerate)
    assert len(idx_i) > 0  # the exception really occurs in this code
    for i, j in zip(idx_i, idx_j):
        assert diff_elements[i] * taus[j] == taus[i] * diff_elements[j]
    # and the characterization is tight: proportional pairs are degenerate
    sample = np.random.default_rng(9).integers(0, len(diff_elements), size=(500, 2))
    for i, j in sample:
        if diff_elements[i] * taus[j] == taus[i] * diff_elements[j]:
            assert degenerate[i, j]


# ---------------------------------------------------------------------------
# equivalent channel
# ---------------------------------------------------------------------------


def test_equivalent_channel_single_user_shape_and_identity():
    basis = dispersion_basis(2)
    h = np.array([1.0, 0.0], dtype=complex)
    eqc = equivalent_channel_one([h], basis)
    assert eqc.shape == (6, 3)
    x = np.array([1 + 1j, -1 + 1j, 1 - 1j])
    X = np.zeros(3, dtype=complex)
    for l in range(3):
        X += x[l] * basis[l]
    direct = np.outer(h, X).reshape(-1, order="F")
    assert np.max(np.abs(eqc @ x - direct)) < 1e-12


def test_equivalent_channel_zero_channels():
    eqc = equivalent_channel_one(np.zeros((2, 2)), dispersion_basis(2))
    assert eqc.shape == (6, 6)
    assert not eqc.any()


def test_equivalent_channel_identity_random_two_user():
    basis = dispersion_basis(2)
    rng = trial_rng(11)
    worst = 0.0
    for _ in range(1000):
        hs = draw_cn(rng, (2, 2))  # user x receive antenna
        xs = draw_cn(rng, (2, 3)) * 3
        eqc = equivalent_channel_one(hs, basis)
        direct = np.zeros((2, 3), dtype=complex)
        for k in range(2):
            Xk = np.zeros(3, dtype=complex)
            for l in range(3):
                Xk += xs[k, l] * basis[l]
            direct += np.outer(hs[k], Xk)
        delta = eqc @ xs.reshape(-1) - direct.reshape(-1, order="F")
        worst = max(worst, float(np.max(np.abs(delta))))
    assert worst < 1e-12


def test_equivalent_channel_linear_in_each_user():
    basis = dispersion_basis(2)
    rng = trial_rng(12)
    h1, h2, g1 = draw_cn(rng, (3, 2))
    a = equivalent_channel_one([h1, h2], basis)
    b = equivalent_channel_one([g1, h2], basis)
    c = equivalent_channel_one([h1 + g1, h2], basis)
    assert np.max(np.abs(a[:, :3] + b[:, :3] - c[:, :3])) < 1e-12
    assert np.max(np.abs(c[:, 3:] - a[:, 3:])) < 1e-12


def test_equivalent_channel_equals_per_column_products_exactly():
    rng = trial_rng(15)
    basis = dispersion_basis(4)
    for k in (1, 2):
        hs = draw_cn(rng, (200, k, 2))
        stack = build_equivalent_channel(hs, basis)
        assert stack.shape == (200, 6, 3 * k)
        for h, eqc in zip(hs, stack):
            cols = [
                (h[u][:, None] @ basis[l : l + 1]).reshape(-1, order="F")
                for u in range(k)
                for l in range(3)
            ]
            assert np.array_equal(eqc, np.column_stack(cols))


def test_dispersion_basis_rejects_multi_antenna_rows():
    # the basis holds one 1 x T row per symbol: every helper has a single
    # transmit antenna, so an n_r x 2 per-user channel is refused
    basis = dispersion_basis(2)
    assert basis.shape == (3, 3) and not basis.flags.writeable
    with pytest.raises(ValueError):
        build_equivalent_channel(np.zeros((1, 2, 2, 2), dtype=complex), basis)
    with pytest.raises(ValueError):
        build_equivalent_channel(np.zeros((2, 2), dtype=complex), basis)  # no stack axis


def test_equivalent_channel_refuses_a_unit_antenna_axis():
    # a stack of receive vectors is (S, k_active, n_r); the (S, k_active,
    # n_r, 1) form with a transmit-antenna axis of one is refused
    h = draw_cn(trial_rng(16), (4, 2, 2))
    with pytest.raises(ValueError):
        build_equivalent_channel(h[..., None], dispersion_basis(2))


# ---------------------------------------------------------------------------
# realify
# ---------------------------------------------------------------------------


def test_realify_scalar_identity():
    A, b = realify(np.array([[1.0 + 0.0j]]), np.array([1 + 2j]))
    assert np.allclose(A, np.eye(2))
    assert np.allclose(b, [1.0, 2.0])


def test_realify_solution_matches_complex_solve():
    rng = trial_rng(13)
    for _ in range(50):
        H = draw_cn(rng, (5, 5))
        x = draw_cn(rng, (5,))
        y = H @ x
        A, b = realify(H, y)
        sol = np.linalg.solve(A, b)
        assert np.max(np.abs(sol[0::2] - x.real)) < 1e-9
        assert np.max(np.abs(sol[1::2] - x.imag)) < 1e-9


def test_realify_pair_scheme_dimensions():
    basis = dispersion_basis(2)
    rng = trial_rng(14)
    eqc = equivalent_channel_one(draw_cn(rng, (2, 2)), basis)
    A, b = realify(eqc, draw_cn(rng, (6,)))
    assert A.shape == (12, 12)
    assert b.shape == (12,)
