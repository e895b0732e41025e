"""Monte Carlo outage-probability estimation and diversity-slope regression.

Rates follow the finite-SNR convention R = gain * log2(snr_linear) + offset
bits per channel use, where the scheme dictates the gain (K*r/2 per active
user for the pair scheme, K*r for TDMA, r per user for the full MAC).  The
offset keeps r = 0 measurable (zero rate has no outage event), so sweeps at
r = 0 default to a 1-bit offset upstream.

The outage predicates are pure and vectorized: they accept one channel
realization or any leading batch shape.  Sweeps draw channels in fixed-size
blocks of 16384 trials, each block on its own Philox counter substream keyed
by (snr index, block index), so counts are a pure function of the spec and
its seed, and worker partitions (which are block-aligned) cannot change the
result.  All merged statistics derive from integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .channel import SnrPoint, draw_cn, trial_rng
from .parallel import map_tasks

#: trials per RNG block; worker partitions are aligned to this
BLOCK_TRIALS = 16384

#: the all-subsets constraint check grows as 2^K
MAX_FULL_MAC_USERS = 12

SCHEMES = ("tdma", "pair", "full-mac")


class InsufficientSamplesError(RuntimeError):
    """Too few SNR cells saw outage events to fit a diversity slope."""


def _rate(gain: float, snr: SnrPoint, offset: float) -> float:
    return gain * math.log2(snr.snr_linear) + offset


def outage_trial_tdma(chan, snr: SnrPoint, K: int, r, offset: float):
    """Outage iff log2(1 + snr*||h||^2) < K*r*log2(snr) + offset.

    chan holds the helper's receive vector(s), shape (..., 2) or (..., 2, 1).
    """
    h = np.asarray(chan)
    if h.ndim >= 2 and h.shape[-1] == 1:
        h = h[..., 0]
    s = snr.snr_linear
    rate = _rate(K * float(r), snr, offset)
    cap = np.log2(1.0 + s * (np.abs(h) ** 2).sum(axis=-1))
    out = cap < rate
    return out if out.ndim else bool(out)


def outage_trial_pair(chan, snr: SnrPoint, K: int, r, offset: float):
    """Outage of one active pair against the three 2-user MAC constraints.

    chan has shape (..., 2, 2); column u is user u's receive vector.  Each
    active user carries rate R_u = (K*r/2)*log2(snr) + offset, the joint
    constraint carries 2*R_u, and the event is the union of
    single-user 1x2 failures and the joint 2x2 failure.
    """
    h = np.asarray(chan)
    s = snr.snr_linear
    r_user = _rate(K * float(r) / 2.0, snr, offset)
    h_sq = np.abs(h) ** 2
    per_user = np.log2(1.0 + s * h_sq.sum(axis=-2))
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    joint = np.log2(1.0 + s * h_sq.sum(axis=(-2, -1)) + (s * s) * np.abs(det) ** 2)
    out = (per_user[..., 0] < r_user) | (per_user[..., 1] < r_user) | (joint < 2.0 * r_user)
    return out if out.ndim else bool(out)


def full_mac_outage_reference(chan, snr: SnrPoint, K: int, r, offset: float):
    """Outage of the full K-user MAC: any of the 2^K - 1 subset constraints
    |S| * R > log2 det(I + snr * H_S H_S^H) fails, R = r*log2(snr) + offset.

    chan has shape (..., 2, K).  Guarded to K <= 12.  This is the direct
    evaluator (every subset Gram matrix built from scratch, one log2 each):
    the definitional oracle of outage_trial_full_mac and its fallback for
    rows too close to the boundary to decide by the fast walk.
    """
    if K > MAX_FULL_MAC_USERS:
        raise ValueError(f"subset enumeration is limited to K <= {MAX_FULL_MAC_USERS}")
    h = np.asarray(chan)
    if h.shape[-1] != K:
        raise ValueError(f"expected {K} user columns, got {h.shape[-1]}")
    s = snr.snr_linear
    rate = _rate(float(r), snr, offset)
    out = np.zeros(h.shape[:-2], dtype=bool)
    for size in range(1, K + 1):
        for subset in combinations(range(K), size):
            sub = h[..., subset]
            g00 = (np.abs(sub[..., 0, :]) ** 2).sum(axis=-1)
            g11 = (np.abs(sub[..., 1, :]) ** 2).sum(axis=-1)
            g01 = (sub[..., 0, :] * sub[..., 1, :].conj()).sum(axis=-1)
            det = g00 * g11 - np.abs(g01) ** 2
            cap = np.log2(1.0 + s * (g00 + g11) + (s * s) * det)
            out |= cap < size * rate
    return out if out.ndim else bool(out)


#: rows whose minimum relative margin is at most this are re-decided by
#: full_mac_outage_reference; the derivation is in _full_mac_margin
_MARGIN_TOL = 1e-12


def _full_mac_margin(h: np.ndarray, s: float, K: int, rate: float) -> np.ndarray:
    """Minimum over the 2^K - 1 subsets S of the relative margin
    1 - (c^2 + d^2 + 2^{|S| R}) / ((1+a)(1+b)), for h of shape (N, 2, K).

    (a, b, c, d) are s times the sums over S of |h0k|^2, |h1k|^2 and the real
    and imaginary parts of h0k conj(h1k), so (1+a)(1+b) - c^2 - d^2 is
    det(I + s H_S H_S^H) and S fails exactly when the margin is negative.
    The subsets are visited depth-first over the prefix tree of ascending
    user lists; a child's (1+a, 1+b, c, d) slab is its parent's plus one
    user's column, written into the buffer of its depth.  Nothing is ever
    subtracted, so a subset's sums carry only the rounding of its own terms
    and no error drifts along the walk.  Memory is O(K N), not O(2^K N).

    Rounding bound, with u = 2^-53 and |S| <= 12: each of a, b, c, d is off
    by less than (|S| + 3) u times the sum of its terms' magnitudes, and
    |c| + |d| <= 2 sqrt(ab) (Cauchy-Schwarz), so this margin is off by less
    than (4|S| + 25) u and the reference's log2 argument by less than
    (4|S| + 20) u (1+a)(1+b).  A row can only be near the boundary when
    2^{|S| R} <= 2 (1+a)(1+b) and |S| R <= 1024 (further out both tests
    report outage with room to spare, and 2^{|S| R} overflows to inf).  There
    the reference's log2, off by at most 2u * 1024, moves its threshold by
    ln2 * 2048 u relative to 2^{|S| R}, so by 2 ln2 * 2048 u (2,840 u)
    relative to (1+a)(1+b).  The total stays below 3,000 u (3.3e-13), three
    times inside _MARGIN_TOL.
    """
    n = h.shape[0]
    h0, h1 = h[:, 0, :].T, h[:, 1, :].T
    cross = h0 * h1.conj()
    cols = np.empty((K, 4, n))
    cols[:, 0] = s * (h0.real**2 + h0.imag**2)
    cols[:, 1] = s * (h1.real**2 + h1.imag**2)
    cols[:, 2] = s * cross.real
    cols[:, 3] = s * cross.imag
    thresh = np.exp2(np.arange(K + 1) * rate)
    # slab[depth] holds (1+a, 1+b, c, d) of the subset at that depth of the path
    slab = np.empty((K + 1, 4, n))
    slab[0] = ((1.0,), (1.0,), (0.0,), (0.0,))
    worst = np.full(n, -np.inf)  # running max of (c^2 + d^2 + 2^{|S| R}) / ((1+a)(1+b))
    sq = np.empty((2, n))
    ratio = np.empty(n)
    det = np.empty(n)
    # (depth, k): extend the path's subset at that depth by user k; a child
    # is pushed after its next sibling, so its whole subtree is done before
    # the sibling overwrites slab[depth + 1]
    stack = [(0, 0)] if K else []
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


def outage_trial_full_mac(chan, snr: SnrPoint, K: int, r, offset: float):
    """Outage of the full K-user MAC, flag for flag equal to
    full_mac_outage_reference.

    chan has shape (..., 2, K).  Guarded to K <= 12.  Every subset is checked
    by the drift-free prefix-tree walk of _full_mac_margin, with no log2: a
    row is in outage iff its minimum relative margin is negative.  Rows whose
    margin lies within _MARGIN_TOL of zero (or is not finite) are too close
    to call under rounding and are re-decided by the reference evaluator.
    """
    if K > MAX_FULL_MAC_USERS:
        raise ValueError(f"subset enumeration is limited to K <= {MAX_FULL_MAC_USERS}")
    h = np.asarray(chan)
    if h.shape[-1] != K:
        raise ValueError(f"expected {K} user columns, got {h.shape[-1]}")
    rows = h.reshape(-1, 2, K)
    margin = _full_mac_margin(rows, snr.snr_linear, K, _rate(float(r), snr, offset))
    out = margin < 0.0
    unsure = ~(np.abs(margin) > _MARGIN_TOL)
    if unsure.any():
        out[unsure] = full_mac_outage_reference(rows[unsure], snr, K, r, offset)
    out = out.reshape(h.shape[:-2])
    return out if out.ndim else bool(out)


def wilson_interval(count: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = count / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of -log10(p_hat) against log10(snr_linear)."""

    d_hat: float
    stderr: float
    used_points: int
    excluded_points: int


def estimate_slope(snr_db: Sequence[float], p_hat: Sequence[float]) -> SlopeFit:
    """Fit the diversity exponent; cells with zero events are excluded.

    Raises InsufficientSamplesError when fewer than two usable cells remain.
    """
    xs, ys = [], []
    excluded = 0
    for db, p in zip(snr_db, p_hat):
        if p > 0.0:
            xs.append(db / 10.0)  # log10 of linear SNR
            ys.append(-math.log10(p))
        else:
            excluded += 1
    n = len(xs)
    if n < 2:
        raise InsufficientSamplesError(
            f"slope fit needs >= 2 cells with outage events, got {n} "
            f"({excluded} empty); increase trials"
        )
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ssr = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(max(ssr, 0.0) / (n - 2) / sxx) if n > 2 else 0.0
    return SlopeFit(slope, stderr, n, excluded)


@dataclass(frozen=True)
class OutageSpec:
    """One sweep: a scheme at fixed (K, r, offset) over an SNR grid."""

    scheme: str
    K: int
    r: Fraction
    rate_offset_bits: float
    snr_grid_db: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.scheme == "full-mac" and self.K > MAX_FULL_MAC_USERS:
            raise ValueError(f"full-mac sweeps support K <= {MAX_FULL_MAC_USERS}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.r < 0:
            raise ValueError("multiplexing gain must be nonnegative")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ValueError("the SNR grid must be ascending")
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "snr_grid_db", tuple(float(v) for v in self.snr_grid_db))


@dataclass(frozen=True)
class OutageCell:
    snr_db: float
    trials: int
    outages: int
    p_hat: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class OutageEstimate:
    cells: tuple[OutageCell, ...]
    slope: SlopeFit | None
    slope_error: str | None = None


def _block_counts(task) -> tuple[int, int]:
    spec, snr_idx, block_idx, block_size = task
    rng = trial_rng(spec.seed, snr_idx, block_idx)
    snr = SnrPoint(spec.snr_grid_db[snr_idx])
    if spec.scheme == "tdma":
        chan = draw_cn(rng, (block_size, 2))
        flags = outage_trial_tdma(chan, snr, spec.K, spec.r, spec.rate_offset_bits)
    elif spec.scheme == "pair":
        chan = draw_cn(rng, (block_size, 2, 2))
        flags = outage_trial_pair(chan, snr, spec.K, spec.r, spec.rate_offset_bits)
    else:
        chan = draw_cn(rng, (block_size, 2, spec.K))
        flags = outage_trial_full_mac(chan, snr, spec.K, spec.r, spec.rate_offset_bits)
    return snr_idx, int(flags.sum())


def run_outage_sweep(spec: OutageSpec, workers: int = 1) -> OutageEstimate:
    """Run the sweep; counts are identical for any worker count."""
    tasks = []
    for snr_idx in range(len(spec.snr_grid_db)):
        remaining = spec.trials
        block_idx = 0
        while remaining > 0:
            size = min(BLOCK_TRIALS, remaining)
            tasks.append((spec, snr_idx, block_idx, size))
            remaining -= size
            block_idx += 1
    counts = [0] * len(spec.snr_grid_db)
    for snr_idx, count in map_tasks(_block_counts, tasks, workers):
        counts[snr_idx] += count
    cells = []
    for snr_idx, db in enumerate(spec.snr_grid_db):
        c = counts[snr_idx]
        lo, hi = wilson_interval(c, spec.trials)
        cells.append(OutageCell(db, spec.trials, c, c / spec.trials, lo, hi))
    try:
        slope = estimate_slope([c.snr_db for c in cells], [c.p_hat for c in cells])
        return OutageEstimate(tuple(cells), slope)
    except InsufficientSamplesError as exc:
        return OutageEstimate(tuple(cells), None, slope_error=str(exc))
