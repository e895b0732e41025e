import math

import numpy as np
import pytest

from wstsim.algebra import (
    ETA,
    ONE,
    ROOTS,
    FieldElement,
    apply_tau,
    embed,
    min_poly_value,
    trace_norm,
)


def random_ints(rng, bound=1000):
    """Six uniform ints in [-bound, bound]: re and im of c0, c1, c2."""
    return [int(v) for v in rng.integers(-bound, bound + 1, size=6)]


def random_element(rng, bound=1000):
    return FieldElement(*random_ints(rng, bound))


def constant(re, im):
    """The Gaussian integer re + im*i as a field element."""
    return FieldElement(re, im, 0, 0, 0, 0)


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
    assert ONE + ETA == FieldElement(1, 0, 1, 0, 0, 0)
    a = FieldElement(1, 1, 2, 0, 0, 0)
    b = FieldElement(-1, -1, -2, 0, 0, 0)
    assert a + b == FieldElement(0, 0, 0, 0, 0, 0)


def test_addition_identity_random():
    rng = np.random.default_rng(1)
    zero = FieldElement(0, 0, 0, 0, 0, 0)
    for _ in range(100):
        x = random_element(rng)
        assert x + zero == x


def test_eta_squared_no_reduction():
    assert ETA * ETA == FieldElement(0, 0, 0, 0, 1, 0)


def test_eta_cubed_reduces():
    # eta^3 = 1 + 2*eta - eta^2 via the derived cubic
    assert (ETA * ETA) * ETA == FieldElement(1, 0, 2, 0, -1, 0)


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
    # exact oracle: schoolbook product on (re, im) Gaussian-integer
    # coefficients, reduced through eta^3 = 1 + 2*eta - eta^2 and
    # eta^4 = -1 - eta + 3*eta^2
    rng = np.random.default_rng(9)
    for bound in (10, 10**9):
        for _ in range(300):
            ca = random_ints(rng, bound=bound)
            cb = random_ints(rng, bound=bound)
            t = [(0, 0)] * 5
            for i in range(3):
                ar, ai = ca[2 * i], ca[2 * i + 1]
                for j in range(3):
                    br, bi = cb[2 * j], cb[2 * j + 1]
                    tr, ti = t[i + j]
                    t[i + j] = (tr + ar * br - ai * bi, ti + ar * bi + ai * br)
            (t0r, t0i), (t1r, t1i), (t2r, t2i), (t3r, t3i), (t4r, t4i) = t
            expected = FieldElement(
                t0r + t3r - t4r, t0i + t3i - t4i,
                t1r + 2 * t3r - t4r, t1i + 2 * t3i - t4i,
                t2r - t3r + 3 * t4r, t2i - t3i + 3 * t4i,
            )
            assert FieldElement(*ca) * FieldElement(*cb) == expected


# ---------------------------------------------------------------------------
# Galois action
# ---------------------------------------------------------------------------


def test_tau_of_eta():
    assert apply_tau(ETA, 1) == FieldElement(-2, 0, 0, 0, 1, 0)


def test_tau_squared_of_eta():
    assert apply_tau(ETA, 2) == FieldElement(1, 0, -1, 0, -1, 0)
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
            img = img * img - constant(2, 0)
        for _ in range(300):
            c = random_ints(rng, bound=10**9)
            assert apply_tau(FieldElement(*c), power) == (
                constant(c[0], c[1]) + img * constant(c[2], c[3]) + img * img * constant(c[4], c[5])
            )


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
    assert abs(embed(FieldElement(1, 0, 1, 0, 1, 0), 0) - 3.801938) < 1e-6


def test_embed_trace_of_eta():
    total = sum(embed(ETA, j) for j in range(3))
    assert abs(total - (-1.0)) < 1e-12


def test_embed_fixes_constants():
    for c in (-7, 0, 3):
        for j in range(3):
            assert embed(constant(c, 0), j) == complex(c)


def test_embed_index_validation():
    with pytest.raises(ValueError):
        embed(ETA, 3)


# ---------------------------------------------------------------------------
# trace and norm
# ---------------------------------------------------------------------------


def test_trace_norm_of_eta():
    tr, nm = trace_norm(ETA)
    assert tr == (-1, 0)
    assert nm == (1, 0)


def test_trace_norm_of_one():
    tr, nm = trace_norm(ONE)
    assert tr == (3, 0)
    assert nm == (1, 0)


def test_trace_norm_integrality_random():
    # trace_norm itself raises if eta-coefficients fail to cancel
    rng = np.random.default_rng(7)
    for _ in range(1000):
        trace_norm(random_element(rng, bound=100))


def test_norm_nonzero_for_nonzero_random():
    rng = np.random.default_rng(8)
    seen = 0
    while seen < 1000:
        c = random_ints(rng, bound=10)
        if not any(c):
            continue
        seen += 1
        _, nm = trace_norm(FieldElement(*c))
        assert nm != (0, 0)


def test_norm_nonzero_exhaustive_small_range():
    # every element with coefficients in {-1, 0, 1} + {-1, 0, 1}i
    vals = [-1, 0, 1]
    for c in np.stack(np.meshgrid(*[vals] * 6), axis=-1).reshape(-1, 6):
        if not c.any():
            continue
        _, nm = trace_norm(FieldElement(*c.tolist()))
        assert nm != (0, 0)


# ---------------------------------------------------------------------------
# the six-int constructor
# ---------------------------------------------------------------------------


def test_the_six_ints_are_re_and_im_of_c0_c1_c2():
    rng = np.random.default_rng(12)
    for _ in range(200):
        c = random_ints(rng)
        x = FieldElement(*c)
        assert x == constant(c[0], c[1]) + ETA * constant(c[2], c[3]) + ETA * ETA * constant(c[4], c[5])
        assert repr(x) == f"FieldElement({c[0]}, {c[1]}, {c[2]}, {c[3]}, {c[4]}, {c[5]})"


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_constructor_rejects_non_ints(bad):
    for pos in range(6):
        coeffs = [1, -1, 3, 1, -3, 1]
        coeffs[pos] = bad
        with pytest.raises(TypeError):
            FieldElement(*coeffs)


def test_embed_equals_the_complex_sum_bit_for_bit():
    # embed evaluates real and imaginary parts apart; both must equal those
    # of the complex sum c0 + c1*rho + c2*(rho*rho), signs of zero included
    rng = np.random.default_rng(13)
    for bound in (1, 3, 255, 10**6, 2**62):
        for _ in range(3000):
            c = [int(v) for v in rng.integers(-bound, bound, size=6, endpoint=True)]
            x = FieldElement(*c)
            for j, rho in enumerate(ROOTS):
                want = complex(c[0], c[1]) + complex(c[2], c[3]) * rho + complex(c[4], c[5]) * (rho * rho)
                got = embed(x, j)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
