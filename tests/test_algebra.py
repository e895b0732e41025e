import math

import numpy as np
import pytest

from wstsim.algebra import (
    ETA,
    ONE,
    ROOTS,
    FieldElement,
    GaussianInt,
    apply_tau,
    embed,
    min_poly_value,
    trace_norm,
)


def random_element(rng, bound=1000):
    c = rng.integers(-bound, bound + 1, size=6)
    return FieldElement(
        GaussianInt(int(c[0]), int(c[1])),
        GaussianInt(int(c[2]), int(c[3])),
        GaussianInt(int(c[4]), int(c[5])),
    )


# ---------------------------------------------------------------------------
# the derived cubic and its roots
# ---------------------------------------------------------------------------


def test_roots_satisfy_minimal_polynomial():
    # the cubic is derived, not quoted: 2cos(2pi k/7) must be its roots
    for k, rho in zip((1, 2, 3), ROOTS):
        assert abs(rho - 2.0 * math.cos(2.0 * math.pi * k / 7.0)) < 1e-15
        assert abs(min_poly_value(rho)) < 1e-12


def test_roots_are_distinct_and_ordered():
    assert ROOTS[0] > ROOTS[1] > ROOTS[2]


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_addition_examples():
    assert FieldElement(1, 0, 0) + FieldElement(0, 1, 0) == FieldElement(1, 1, 0)
    a = FieldElement(GaussianInt(1, 1), 2, 0)
    b = FieldElement(GaussianInt(-1, -1), -2, 0)
    assert a + b == FieldElement(0, 0, 0)


def test_addition_identity_random():
    rng = np.random.default_rng(1)
    zero = FieldElement(0, 0, 0)
    for _ in range(100):
        x = random_element(rng)
        assert x + zero == x


def test_eta_squared_no_reduction():
    assert ETA * ETA == FieldElement(0, 0, 1)


def test_eta_cubed_reduces():
    # eta^3 = 1 + 2*eta - eta^2 via the derived cubic
    assert (ETA * ETA) * ETA == FieldElement(1, 2, -1)


def test_multiplicative_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = random_element(rng)
        assert x * ONE == x


def test_multiplication_matches_embeddings():
    # float cross-check of the exact reduction
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = random_element(rng)
        b = random_element(rng)
        prod = a * b
        for j in range(3):
            assert abs(embed(prod, j) - embed(a, j) * embed(b, j)) < 1e-9 * max(
                1.0, abs(embed(a, j) * embed(b, j))
            )


def test_multiplication_matches_gaussian_reference():
    # exact oracle: schoolbook product on GaussianInt coefficients, reduced
    # through eta^3 = 1 + 2*eta - eta^2 and eta^4 = -1 - eta + 3*eta^2
    rng = np.random.default_rng(9)
    for bound in (10, 10**9):
        for _ in range(300):
            a = random_element(rng, bound=bound)
            b = random_element(rng, bound=bound)
            t = [GaussianInt(0, 0)] * 5
            for i, ai in enumerate(a.coefficients()):
                for j, bj in enumerate(b.coefficients()):
                    t[i + j] = t[i + j] + ai * bj
            expected = FieldElement(
                t[0] + t[3] - t[4], t[1] + 2 * t[3] - t[4], t[2] - t[3] + 3 * t[4]
            )
            assert a * b == expected


# ---------------------------------------------------------------------------
# Galois action
# ---------------------------------------------------------------------------


def test_tau_of_eta():
    assert apply_tau(ETA, 1) == FieldElement(-2, 0, 1)


def test_tau_squared_of_eta():
    assert apply_tau(ETA, 2) == FieldElement(1, -1, -1)
    # numeric cross-check: sigma_0(tau^2(eta)) = 2cos(8pi/7)
    assert abs(embed(apply_tau(ETA, 2), 0) - 2.0 * math.cos(8.0 * math.pi / 7.0)) < 1e-12


def test_tau_cubed_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = random_element(rng, bound=50)
        y = apply_tau(apply_tau(apply_tau(x, 1), 1), 1)
        assert y == x


def test_tau_matches_substitution():
    # tau^p(x) = c0 + c1*tau^p(eta) + c2*tau^p(eta)^2, evaluated by field arithmetic
    rng = np.random.default_rng(10)
    for power in (1, 2):
        img = ETA
        for _ in range(power):
            img = img * img - FieldElement(2)
        for _ in range(300):
            x = random_element(rng, bound=10**9)
            assert apply_tau(x, power) == FieldElement(x.c0) + img * x.c1 + img * img * x.c2


def test_tau_power_validation():
    with pytest.raises(ValueError):
        apply_tau(ETA, 3)


def test_tau_is_ring_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = random_element(rng, bound=100)
        b = random_element(rng, bound=100)
        assert apply_tau(a + b, 1) == apply_tau(a, 1) + apply_tau(b, 1)
        assert apply_tau(a * b, 1) == apply_tau(a, 1) * apply_tau(b, 1)


def test_tau_shifts_embeddings_cyclically():
    rng = np.random.default_rng(6)
    for _ in range(300):
        x = random_element(rng)
        tx = apply_tau(x, 1)
        for j in range(3):
            assert abs(embed(tx, j) - embed(x, (j + 1) % 3)) < 1e-9


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_embed_example_value():
    assert abs(embed(FieldElement(1, 1, 1), 0) - 3.801938) < 1e-6


def test_embed_trace_of_eta():
    total = sum(embed(ETA, j) for j in range(3))
    assert abs(total - (-1.0)) < 1e-12


def test_embed_fixes_constants():
    for c in (-7, 0, 3):
        for j in range(3):
            assert embed(FieldElement(c, 0, 0), j) == complex(c)


def test_embed_index_validation():
    with pytest.raises(ValueError):
        embed(ETA, 3)


# ---------------------------------------------------------------------------
# trace and norm
# ---------------------------------------------------------------------------


def test_trace_norm_of_eta():
    tr, nm = trace_norm(ETA)
    assert tr == GaussianInt(-1, 0)
    assert nm == GaussianInt(1, 0)


def test_trace_norm_of_one():
    tr, nm = trace_norm(ONE)
    assert tr == GaussianInt(3, 0)
    assert nm == GaussianInt(1, 0)


def test_trace_norm_integrality_random():
    # trace_norm itself raises if eta-coefficients fail to cancel
    rng = np.random.default_rng(7)
    for _ in range(1000):
        trace_norm(random_element(rng, bound=100))


def test_norm_nonzero_for_nonzero_random():
    rng = np.random.default_rng(8)
    seen = 0
    while seen < 1000:
        x = random_element(rng, bound=10)
        if not x:
            continue
        seen += 1
        _, nm = trace_norm(x)
        assert nm != GaussianInt(0, 0)


def test_norm_nonzero_exhaustive_small_range():
    # every element with coefficients in {-1, 0, 1} + {-1, 0, 1}i
    vals = [-1, 0, 1]
    for c in np.stack(np.meshgrid(*[vals] * 6), axis=-1).reshape(-1, 6):
        x = FieldElement(
            GaussianInt(int(c[0]), int(c[1])),
            GaussianInt(int(c[2]), int(c[3])),
            GaussianInt(int(c[4]), int(c[5])),
        )
        if not x:
            continue
        _, nm = trace_norm(x)
        assert nm != GaussianInt(0, 0)


# ---------------------------------------------------------------------------
# Gaussian integers
# ---------------------------------------------------------------------------


def test_gaussian_int_arithmetic():
    a = GaussianInt(2, 3)
    b = GaussianInt(-1, 4)
    assert a + b == GaussianInt(1, 7)
    assert a - b == GaussianInt(3, -1)
    assert a * b == GaussianInt(-14, 5)
    assert a.conj() == GaussianInt(2, -3)
    assert complex(a) == 2 + 3j
    assert 2 * a == GaussianInt(4, 6)


def test_gaussian_int_rejects_non_ints():
    with pytest.raises(TypeError):
        GaussianInt(1.5, 0)


def test_from_ints_equals_the_gaussian_constructor():
    rng = np.random.default_rng(12)
    for _ in range(200):
        c = [int(v) for v in rng.integers(-1000, 1001, size=6)]
        x = FieldElement.from_ints(*c)
        assert x == FieldElement(GaussianInt(c[0], c[1]), GaussianInt(c[2], c[3]), GaussianInt(c[4], c[5]))
        assert hash(x) == hash(FieldElement(GaussianInt(c[0], c[1]), GaussianInt(c[2], c[3]), GaussianInt(c[4], c[5])))
        assert tuple(v for q in x.coefficients() for v in (q.re, q.im)) == tuple(c)


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_from_ints_rejects_non_ints_like_the_constructor(bad):
    for pos in range(6):
        coeffs = [1, -1, 3, 1, -3, 1]
        coeffs[pos] = bad
        with pytest.raises(TypeError):
            FieldElement.from_ints(*coeffs)
    with pytest.raises(TypeError):
        FieldElement(GaussianInt(1, 1), bad, 0)


def test_embed_equals_the_complex_sum_bit_for_bit():
    # embed evaluates real and imaginary parts apart; both must equal those
    # of the complex sum c0 + c1*rho + c2*(rho*rho), signs of zero included
    rng = np.random.default_rng(13)
    for bound in (1, 3, 255, 10**6, 2**62):
        for _ in range(3000):
            c = [int(v) for v in rng.integers(-bound, bound, size=6, endpoint=True)]
            x = FieldElement.from_ints(*c)
            for j, rho in enumerate(ROOTS):
                want = complex(c[0], c[1]) + complex(c[2], c[3]) * rho + complex(c[4], c[5]) * (rho * rho)
                got = embed(x, j)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
