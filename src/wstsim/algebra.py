"""Exact arithmetic in the degree-3 cyclic field behind the transmit lattice.

The field is generated over Q(i) by eta = 2*cos(2*pi/7), whose minimal
polynomial over the rationals is the monic cubic

    p(x) = x^3 + x^2 - 2x - 1.

The cubic is a derived constant rather than a quoted one: the test suite
checks |p(2*cos(2*pi*k/7))| < 1e-12 for k = 1, 2, 3 and cross-checks every
reduction identity against floating-point arithmetic on the embeddings.
Elements are stored on the basis {1, eta, eta^2} with Gaussian-integer
coefficients (the representation is canonical, so equality is
coefficient-wise), and products reduce through

    eta^3 = 1 + 2*eta - eta^2,        eta^4 = -1 - eta + 3*eta^2.

The Galois group is cyclic of order 3, generated by

    tau: eta -> eta^2 - 2,

and the three real embeddings send eta to

    rho_0 = 2*cos(2*pi/7) > rho_1 = 2*cos(4*pi/7) > rho_2 = 2*cos(6*pi/7).

With this ordering tau shifts embedding indices cyclically:
sigma_j(tau(x)) = sigma_{(j+1) mod 3}(x), which is what lines the columns of
a code matrix up with embedding indices.

Coefficients are Python ints, which are exact and unbounded, so coefficient
arithmetic cannot overflow or silently wrap.  All values are immutable and
every function is pure, hence safe under any degree of concurrency.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# Minimal polynomial of eta, descending coefficients: x^3 + x^2 - 2x - 1.
MIN_POLY = (1, 1, -2, -1)

# Real embeddings of eta, ordered rho_0 > rho_1 > rho_2; embedding j sends
# eta to ROOTS[j].
ROOTS = (
    2.0 * math.cos(2.0 * math.pi / 7.0),
    2.0 * math.cos(4.0 * math.pi / 7.0),
    2.0 * math.cos(6.0 * math.pi / 7.0),
)


def min_poly_value(t: float) -> float:
    """Evaluate the minimal polynomial at t (Horner form)."""
    a3, a2, a1, a0 = MIN_POLY
    return ((a3 * t + a2) * t + a1) * t + a0


@dataclass(frozen=True)
class GaussianInt:
    """Exact complex integer re + im*i."""

    re: int = 0
    im: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.re, int) or not isinstance(self.im, int):
            raise TypeError("GaussianInt components must be Python ints")

    def __add__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianInt:
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: GaussianInt | int) -> GaussianInt:
        if isinstance(other, GaussianInt):
            return GaussianInt(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return NotImplemented

    def __rmul__(self, other: int) -> GaussianInt:
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return NotImplemented

    def conj(self) -> GaussianInt:
        return GaussianInt(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


def _as_gaussian(v: GaussianInt | int) -> GaussianInt:
    if isinstance(v, GaussianInt):
        return v
    if isinstance(v, int):
        return GaussianInt(v, 0)
    raise TypeError(f"cannot coerce {type(v).__name__} to GaussianInt")


def _element(v: tuple[int, int, int, int, int, int]) -> FieldElement:
    """Wrap already-exact coefficients without re-validating them."""
    x = object.__new__(FieldElement)
    x._v = v
    return x


class FieldElement:
    """c0 + c1*eta + c2*eta^2 with Gaussian-integer coefficients.

    The coefficients are held as one tuple of six Python ints
    (re c0, im c0, re c1, im c1, re c2, im c2).  The public constructor
    validates its arguments; arithmetic builds results straight from the int
    tuple, since sums and products of ints need no check.  c0, c1 and c2 are
    read-only.
    """

    __slots__ = ("_v",)

    def __init__(
        self, c0: GaussianInt | int = 0, c1: GaussianInt | int = 0, c2: GaussianInt | int = 0
    ) -> None:
        g0, g1, g2 = _as_gaussian(c0), _as_gaussian(c1), _as_gaussian(c2)
        self._v = (g0.re, g0.im, g1.re, g1.im, g2.re, g2.im)

    @classmethod
    def from_ints(cls, r0: int, i0: int, r1: int, i1: int, r2: int, i2: int) -> FieldElement:
        """The element with coefficients r0 + i0*i, r1 + i1*i and r2 + i2*i,
        from six Python ints and without a GaussianInt per coefficient."""
        if not (
            isinstance(r0, int) and isinstance(i0, int) and isinstance(r1, int)
            and isinstance(i1, int) and isinstance(r2, int) and isinstance(i2, int)
        ):
            raise TypeError("FieldElement coefficients must be Python ints")
        return _element((r0, i0, r1, i1, r2, i2))

    @property
    def c0(self) -> GaussianInt:
        return GaussianInt(self._v[0], self._v[1])

    @property
    def c1(self) -> GaussianInt:
        return GaussianInt(self._v[2], self._v[3])

    @property
    def c2(self) -> GaussianInt:
        return GaussianInt(self._v[4], self._v[5])

    def coefficients(self) -> tuple[GaussianInt, GaussianInt, GaussianInt]:
        return (self.c0, self.c1, self.c2)

    def __repr__(self) -> str:
        return f"FieldElement(c0={self.c0!r}, c1={self.c1!r}, c2={self.c2!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self._v == other._v
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    def __add__(self, other: FieldElement) -> FieldElement:
        return _element(tuple(map(operator.add, self._v, other._v)))

    def __sub__(self, other: FieldElement) -> FieldElement:
        return _element(tuple(map(operator.sub, self._v, other._v)))

    def __neg__(self) -> FieldElement:
        return _element(tuple(map(operator.neg, self._v)))

    def __mul__(self, other: FieldElement | GaussianInt | int) -> FieldElement:
        if isinstance(other, (GaussianInt, int)):
            g = _as_gaussian(other)
            gr, gi = g.re, g.im
            v = self._v
            return _element(
                (
                    v[0] * gr - v[1] * gi, v[0] * gi + v[1] * gr,
                    v[2] * gr - v[3] * gi, v[2] * gi + v[3] * gr,
                    v[4] * gr - v[5] * gi, v[4] * gi + v[5] * gr,
                )
            )
        if not isinstance(other, FieldElement):
            return NotImplemented
        ar0, ai0, ar1, ai1, ar2, ai2 = self._v
        br0, bi0, br1, bi1, br2, bi2 = other._v
        # coefficients t0..t4 of eta^0..eta^4 in the unreduced product
        t0r = ar0 * br0 - ai0 * bi0
        t0i = ar0 * bi0 + ai0 * br0
        t1r = ar0 * br1 - ai0 * bi1 + ar1 * br0 - ai1 * bi0
        t1i = ar0 * bi1 + ai0 * br1 + ar1 * bi0 + ai1 * br0
        t2r = ar0 * br2 - ai0 * bi2 + ar1 * br1 - ai1 * bi1 + ar2 * br0 - ai2 * bi0
        t2i = ar0 * bi2 + ai0 * br2 + ar1 * bi1 + ai1 * br1 + ar2 * bi0 + ai2 * br0
        t3r = ar1 * br2 - ai1 * bi2 + ar2 * br1 - ai2 * bi1
        t3i = ar1 * bi2 + ai1 * br2 + ar2 * bi1 + ai2 * br1
        t4r = ar2 * br2 - ai2 * bi2
        t4i = ar2 * bi2 + ai2 * br2
        # reduce eta^3 and eta^4 through the minimal polynomial
        return _element(
            (
                t0r + t3r - t4r, t0i + t3i - t4i,
                t1r + 2 * t3r - t4r, t1i + 2 * t3i - t4i,
                t2r - t3r + 3 * t4r, t2i - t3i + 3 * t4i,
            )
        )

    def __rmul__(self, other: GaussianInt | int) -> FieldElement:
        if isinstance(other, (GaussianInt, int)):
            return self * other
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self._v)


ONE = FieldElement(1, 0, 0)
ETA = FieldElement(0, 1, 0)

# tau(eta) = eta^2 - 2; tau^2(eta) follows by applying tau again, i.e.
# tau(eta)^2 - 2.
_TAU_ETA = FieldElement(-2, 0, 1)
_TAU2_ETA = _TAU_ETA * _TAU_ETA - FieldElement(2)


def _tau_matrix(img: FieldElement) -> tuple[tuple[int, ...], ...]:
    """Row k holds the eta^k coefficients of the images 1, img, img^2 of 1, eta, eta^2.

    tau fixes i, so these images have rational-integer coefficients and the
    map acts the same way on the real and on the imaginary parts.
    """
    cols = (ONE._v, img._v, (img * img)._v)
    return tuple(tuple(c[2 * k] for c in cols) for k in range(3))


_TAU_MATRIX = {1: _tau_matrix(_TAU_ETA), 2: _tau_matrix(_TAU2_ETA)}


def apply_tau(x: FieldElement, power: int) -> FieldElement:
    """Image of x under tau^power (power in {0, 1, 2}).

    Computed by substituting tau^power(eta) into the polynomial of x and
    reducing, so the result is exact.  The substitution is linear in the
    coefficients of x and is precomputed as an integer matrix.
    """
    if power not in (0, 1, 2):
        raise ValueError(f"power must be 0, 1 or 2, got {power!r}")
    if power == 0:
        return x
    (a0, a1, a2), (b0, b1, b2), (d0, d1, d2) = _TAU_MATRIX[power]
    r0, i0, r1, i1, r2, i2 = x._v
    return _element(
        (
            a0 * r0 + a1 * r1 + a2 * r2, a0 * i0 + a1 * i1 + a2 * i2,
            b0 * r0 + b1 * r1 + b2 * r2, b0 * i0 + b1 * i1 + b2 * i2,
            d0 * r0 + d1 * r1 + d2 * r2, d0 * i0 + d1 * i1 + d2 * i2,
        )
    )


def embed(x: FieldElement, j: int) -> complex:
    """Numerical embedding sigma_j = tau^j: evaluate coefficients at rho_j.

    The real and imaginary parts are evaluated separately; each equals, to
    the bit, that of the complex sum c0 + c1*rho + c2*(rho*rho), signs of
    zero included.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"embedding index must be 0, 1 or 2, got {j!r}")
    rho = ROOTS[j]
    rho2 = rho * rho
    r0, i0, r1, i1, r2, i2 = x._v
    return complex(r0 + r1 * rho + r2 * rho2, i0 + i1 * rho + i2 * rho2)


def trace_norm(x: FieldElement) -> tuple[GaussianInt, GaussianInt]:
    """Relative trace and norm: (x + tau(x) + tau^2(x), x * tau(x) * tau^2(x)).

    Both are Gaussian integers; a nonzero eta or eta^2 coefficient in either
    reduced value means tau or the reduction is broken, so it raises.
    """
    t1 = apply_tau(x, 1)
    t2 = apply_tau(x, 2)
    tr = x + t1 + t2
    nm = x * t1 * t2
    for name, v in (("trace", tr), ("norm", nm)):
        if any(v._v[2:]):
            raise ArithmeticError(
                f"{name} of {x!r} has non-constant coefficients; "
                "Galois action or reduction is inconsistent"
            )
    return tr.c0, nm.c0
