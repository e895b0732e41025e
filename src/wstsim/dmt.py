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


def dmt_group(K: int, g: int) -> DmtCurve:
    """K single-antenna helpers sent in groups of g to a 2-antenna receiver.

    Each group is a g x 2 MAC whose users run at gain K*r/g, so the curve is
    min{d*_{1,2}(K*r/g), d*_{g,2}(K*r)}: with single-antenna users only the
    subsets of size 1 and g bind (Tse, Viswanath & Zheng 2004).  g = 1 is
    TDMA, g = 2 the pair scheme and g = K the optimal MAC.
    """
    if not 1 <= g <= K:
        raise ValueError(f"the group size must lie in 1..K, got g={g} for K={K}")
    return pointwise_min(
        scale_arg(dmt_ptp(1, 2), Fraction(K, g)),
        scale_arg(dmt_ptp(g, 2), K),
    )


def emit_fig1(K: int, grid: int) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Sample (r, d_optimal, d_proposed, d_tdma), the group sizes g = K, 2
    and 1, on a uniform rational grid.

    The grid has exactly `grid` rows and covers [0, r_max], where r_max is
    the largest zero point among the three curves.
    """
    if K < 2:
        raise ValueError("the comparison needs at least two helpers")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    curves = (dmt_group(K, K), dmt_group(K, 2), dmt_group(K, 1))
    r_max = max(c.zero_point for c in curves)
    rows = []
    for i in range(grid):
        r = r_max * Fraction(i, grid - 1)
        rows.append((r, curves[0](r), curves[1](r), curves[2](r)))
    return rows
