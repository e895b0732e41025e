"""Closed-form diversity-multiplexing tradeoff curves with exact rationals.

A curve is a list of (r, d) breakpoints with Fraction coordinates.  It
interpolates linearly between consecutive breakpoints and is 0 past the last
one, so segment crossings (for pointwise minima) and evaluations are exact
and need no floating tolerance.  Constructors canonicalize: collinear
interior breakpoints and anything after the first zero-diversity point are
dropped, which makes curve equality plain breakpoint equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear, non-increasing diversity curve d(r)."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = [(_frac(r), _frac(d)) for r, d in self.breakpoints]
        if not pts:
            raise ValueError("a curve needs at least one breakpoint")
        if pts[0][0] != 0:
            raise ValueError("first breakpoint must sit at r = 0")
        for (r1, d1), (r2, d2) in zip(pts, pts[1:]):
            if r2 <= r1:
                raise ValueError("breakpoint r values must be strictly increasing")
            if d2 > d1:
                raise ValueError("diversity must be non-increasing in r")
        if pts[-1][1] < 0:
            raise ValueError("diversity must be nonnegative")
        # canonical form: cut past the first zero, then drop collinear points
        for i, (_, d) in enumerate(pts):
            if d == 0:
                pts = pts[: i + 1]
                break
        out = [pts[0]]
        for pt in pts[1:]:
            while len(out) >= 2:
                (r0, d0), (r1, d1) = out[-2], out[-1]
                r2, d2 = pt
                if (r2 - r0) * (d1 - d0) == (r1 - r0) * (d2 - d0):
                    out.pop()
                else:
                    break
            out.append(pt)
        object.__setattr__(self, "breakpoints", tuple(out))

    def value_at(self, r) -> Fraction:
        r = _frac(r)
        if r < 0:
            raise ValueError("multiplexing gain must be nonnegative")
        bps = self.breakpoints
        if r >= bps[-1][0]:
            return bps[-1][1] if r == bps[-1][0] else Fraction(0)
        for (r1, d1), (r2, d2) in zip(bps, bps[1:]):
            if r1 <= r <= r2:
                return d1 + (d2 - d1) * (r - r1) / (r2 - r1)
        return bps[0][1]  # r == 0 on a single-point curve

    __call__ = value_at

    @property
    def zero_point(self) -> Fraction | None:
        """Smallest r with d(r) = 0, or None if the curve never reaches 0."""
        r_last, d_last = self.breakpoints[-1]
        return r_last if d_last == 0 else None


def dmt_ptp(m: int, n: int) -> DmtCurve:
    """Optimal m x n point-to-point curve: corners (r, (m-r)(n-r))."""
    if m < 1 or n < 1:
        raise ValueError("antenna counts must be positive")
    return DmtCurve(
        tuple((Fraction(r), Fraction((m - r) * (n - r))) for r in range(min(m, n) + 1))
    )


def scale_arg(curve: DmtCurve, a) -> DmtCurve:
    """The curve r -> curve(a*r); breakpoint r values divide by a exactly."""
    a = _frac(a)
    if a <= 0:
        raise ValueError("argument scale must be positive")
    return DmtCurve(tuple((r / a, d) for r, d in curve.breakpoints))


def pointwise_min(a: DmtCurve, b: DmtCurve) -> DmtCurve:
    """Exact piecewise-linear minimum, with segment crossings inserted.

    Past the earlier of the two last breakpoints the ended curve is 0, so
    the minimum is identically 0 there; the result therefore stops at that
    point and inherits the 0-beyond-the-end convention exactly.
    """
    r_stop = min(a.breakpoints[-1][0], b.breakpoints[-1][0])
    grid = sorted(
        {r for r, _ in a.breakpoints if r <= r_stop}
        | {r for r, _ in b.breakpoints if r <= r_stop}
    )
    pts: list[tuple[Fraction, Fraction]] = []
    for r1, r2 in zip(grid, grid[1:]):
        f1, g1 = a.value_at(r1), b.value_at(r1)
        f2, g2 = a.value_at(r2), b.value_at(r2)
        pts.append((r1, min(f1, g1)))
        u1, u2 = f1 - g1, f2 - g2
        if (u1 > 0 > u2) or (u1 < 0 < u2):
            t = u1 / (u1 - u2)
            rc = r1 + (r2 - r1) * t
            pts.append((rc, f1 + (f2 - f1) * t))
    pts.append((r_stop, min(a.value_at(r_stop), b.value_at(r_stop))))
    return DmtCurve(tuple(pts))


@dataclass(frozen=True)
class SchemeParams:
    """Helper count and antenna geometry of one repair scenario.

    The transmission protocol itself needs K >= 2, which the CLI enforces;
    K = 1 is allowed here so degenerate reductions stay expressible.
    """

    K: int
    n_t: int = 1
    n_r: int = 2

    def __post_init__(self) -> None:
        if self.K < 1 or self.n_t < 1 or self.n_r < 1:
            raise ValueError("K, n_t and n_r must be positive")


def dmt_optimal_mac(p: SchemeParams) -> DmtCurve:
    """Optimal MAC curve: min of the single-user curve and the K-fold
    antenna-pooled curve at argument K*r."""
    return pointwise_min(
        dmt_ptp(p.n_t, p.n_r),
        scale_arg(dmt_ptp(p.K * p.n_t, p.n_r), p.K),
    )


def dmt_proposed(p: SchemeParams) -> DmtCurve:
    """Pair-scheduling scheme: min{d*_{1,2}(K*r/2), d*_{2,2}(K*r)}.

    Only defined for the scheme's geometry n_t = 1, n_r = 2.
    """
    if p.n_t != 1 or p.n_r != 2:
        raise ValueError("the pair scheme assumes n_t = 1 and n_r = 2")
    return pointwise_min(
        scale_arg(dmt_ptp(1, 2), Fraction(p.K, 2)),
        scale_arg(dmt_ptp(2, 2), p.K),
    )


def dmt_tdma(p: SchemeParams) -> DmtCurve:
    """Orthogonal baseline: each helper takes turns at multiplexing gain K*r,
    so the curve is d*_{1,n_r}(K*r)."""
    if p.n_t != 1:
        raise ValueError("the TDMA baseline assumes n_t = 1")
    return scale_arg(dmt_ptp(1, p.n_r), p.K)


def emit_fig1(K: int, grid: int) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Sample (r, d_optimal, d_proposed, d_tdma) on a uniform rational grid.

    The grid has exactly `grid` rows and covers [0, r_max], where r_max is
    the largest zero point among the three curves.
    """
    if K < 2:
        raise ValueError("the comparison needs at least two helpers")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    params = SchemeParams(K=K)
    curves = (dmt_optimal_mac(params), dmt_proposed(params), dmt_tdma(params))
    r_max = max(c.zero_point for c in curves)
    rows = []
    for i in range(grid):
        r = r_max * Fraction(i, grid - 1)
        rows.append((r, curves[0](r), curves[1](r), curves[2](r)))
    return rows
