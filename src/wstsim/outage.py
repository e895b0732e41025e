"""Monte Carlo outage-probability estimation and diversity-slope regression.

Rates follow the finite-SNR convention R = gain * log2(snr_linear) + offset
bits per channel use.  Each scheme sends the K users in groups of g (TDMA
g = 1, the pair scheme g = 2, the full MAC g = K), so an active user's gain
is K*r/g: K*r for TDMA, K*r/2 for a pair member and r for a full-MAC user.
The offset keeps r = 0 measurable (zero rate has no outage event), so sweeps
at r = 0 default to a 1-bit offset upstream.

The full-MAC predicate decides each row in one of three ways.  A
Cauchy-Binet lower bound on the determinants of every subset size clears
most rows, and exact checks of the weakest user and of the full set put
others in outage; only the remaining rows check all 2^K - 1 subsets.  Those
rows take the subsets of the first b users as one table, built by doubling,
and walk the rest of the users depth-first, each walk step adding one
user's column to a (4, 2^b, N) slab; b grows as fewer rows are left, and
the slabs of the walk's path, (K - b + 1) 4 2^b N floats, stay within a
fixed element budget.  Either way each subset's sums add its users' columns
in ascending order, so the margins, and their rounding bound, do not depend
on b.  Rows too close to the boundary to call under rounding go to the
direct evaluator, so flags equal full_mac_outage_reference exactly.

Each thread keeps one workspace of named float64 buffers, each grown to the
largest size asked of it and reused across blocks and sweeps, so a sweep
allocates no large array per block: _block_counts draws every block into
its "draw" buffer, and the subset bound works in two slots, "A" and "B",
of max(4K, K + C(K, 2)) N floats each for a block of N rows.  At K = 12 and
16,384 rows (one full block) that is 9.75 MiB a slot, plus 6 MiB of draw
buffer, about 25.5 MiB a thread.  The buffers are private to the module:
the predicates return fresh arrays, never a view of them.

The outage predicates are pure and vectorized: they accept one channel
realization or any leading batch shape.  Sweeps draw channels in fixed-size
blocks of 16384 trials, each block on its own Philox counter substream keyed
by (snr index, block index), so counts are a pure function of the spec and
its seed, and worker partitions (which are block-aligned) cannot change the
result.  All merged statistics derive from integer counts.
"""

from __future__ import annotations

import math
import threading
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


class _Workspace(threading.local):
    """One thread's named float64 buffers, each grown to the largest size
    asked of it and kept for the next request."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int) -> np.ndarray:
        """The first size entries of buffer name, as a 1-D view."""
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size]


_workspace = _Workspace()


def _slot(name: str, K: int, n: int) -> np.ndarray:
    """Slot "A" or "B" of the subset bound for K users and n rows: room for
    its largest role, four (K, n) planes or K + C(K, 2) rows of n."""
    return _workspace.take(name, max(4 * K, K + K * (K - 1) // 2) * n)


def _rate(gain: float, snr: SnrPoint, offset: float) -> float:
    return gain * math.log2(snr.snr_linear) + offset


def _check_users(K: int) -> None:
    if K < 1:
        raise ValueError(f"K (the number of helpers) must be at least 1, got {K!r}")


def outage_trial_tdma(chan, snr: SnrPoint, K: int, r, offset: float):
    """Outage iff log2(1 + snr*||h||^2) < K*r*log2(snr) + offset.

    chan holds the helper's receive vector(s), shape (..., 2) or (..., 2, 1).
    """
    _check_users(K)
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
    _check_users(K)
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
            with np.errstate(invalid="ignore", divide="ignore"):
                cap = np.log2(1.0 + s * (g00 + g11) + (s * s) * det)
            out |= cap < size * rate
    return out if out.ndim else bool(out)


#: rows whose minimum relative margin is at most this are re-decided by
#: full_mac_outage_reference, and the subset bound decides a row only with
#: more than this times (1+A)(1+B) to spare; the derivations are in
#: _full_mac_margin and _subset_bound_gaps
_MARGIN_TOL = 1e-12


def _user_terms(h: np.ndarray, s: float) -> np.ndarray:
    """(a, b, c, d) per user, shape (4, K, N), for h of shape (N, 2, K): s times
    |h0k|^2, |h1k|^2 and the real and imaginary parts of h0k conj(h1k).

    h is copied once, transposed, into workspace slot A as contiguous (K, N)
    rows of the real and imaginary parts of h0 and h1, and each term is
    computed from those rows in place.  The terms are a view of slot B,
    valid until the next call that uses the workspace.
    """
    n, _, K = h.shape
    x = _slot("A", K, n)[: 4 * K * n].reshape(2, 2, K, n)
    np.copyto(x[0], h.real.transpose(1, 2, 0))
    np.copyto(x[1], h.imag.transpose(1, 2, 0))
    (h0r, h1r), (h0i, h1i) = x
    terms = _slot("B", K, n)[: 4 * K * n].reshape(4, K, n)
    a, b, c, d = terms
    np.multiply(h0r, h0r, out=a)
    a += np.multiply(h0i, h0i, out=b)  # b is scratch until it is written below
    np.multiply(h0r, h1r, out=c)
    c += np.multiply(h0i, h1i, out=b)
    np.multiply(h0i, h1r, out=d)
    d -= np.multiply(h0r, h1i, out=h0r)  # the last read of h0r
    np.multiply(h1r, h1r, out=b)
    b += np.multiply(h1i, h1i, out=h1i)
    terms *= s
    return terms


#: elements the squared (c, d) planes of one subset step may hold: the
#: first b users' subset table gives each of the N rows 2^b columns, with b
#: the largest count such that 2^(b+1) N stays within this budget
_WALK_BUDGET = 2**13


def _full_mac_margin(h: np.ndarray, s: float, K: int, rate: float) -> np.ndarray:
    """Minimum over the 2^K - 1 subsets S of the relative margin
    1 - (c^2 + d^2 + 2^{|S| R}) / ((1+a)(1+b)), for h of shape (N, 2, K).

    (a, b, c, d) are s times the sums over S of |h0k|^2, |h1k|^2 and the real
    and imaginary parts of h0k conj(h1k), so (1+a)(1+b) - c^2 - d^2 is
    det(I + s H_S H_S^H) and S fails exactly when the margin is negative.

    Every subset's (1+a, 1+b, c, d) is its parent's plus the column of its
    largest user, starting from (1, 1, 0, 0) for the empty set, so each sum
    adds its users' columns in ascending user order.  The subsets of the
    first b users are built at once as a table by doubling: for each user
    k < b in turn, T[S + {k}] = T[S] + column k for every S of users below
    k, giving a (4, 2^b, N) slab.  The other K - b users are walked
    depth-first over the prefix tree of their ascending lists, and each node
    of the walk adds one user's column to its parent's whole slab, which
    covers the node's subset joined with every table subset.  b is the
    largest count with 2^(b+1) N <= _WALK_BUDGET, capped at K: a few rows
    are decided by the table alone, and a block of more than _WALK_BUDGET / 4
    rows gets b = 0, a plain walk over single subsets.  The slabs along the
    walk's path hold (K - b + 1) 4 2^b N floats; for b > 0 that is at most
    2 (K + 1) _WALK_BUDGET, whatever N is.

    Nothing is ever subtracted, so a subset's sums carry only the rounding
    of its own terms and no error drifts along the walk; and since the
    terms are added in the same ascending order, and each ratio takes the
    same operations in the same order, as a walk over single subsets, the
    margins do not depend on b, bit for bit.

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
    cols = _user_terms(h, s).transpose(1, 0, 2)[:, :, None].copy()  # user k's is cols[k]
    b = min(K, max(0, (_WALK_BUDGET // max(n, 1)).bit_length() - 2))
    width = 1 << b
    # level[depth][A] = 2^{|S| R} for table subset A joined with depth walked
    # users, except that the empty set's is -inf, so its ratio never counts
    sizes = np.array([A.bit_count() for A in range(width)]) + np.arange(K - b + 1)[:, None]
    level = np.exp2(np.arange(K + 1) * rate)[sizes][..., None]
    level[0, 0] = -np.inf
    # slab[depth] holds the table's (1+a, 1+b, c, d) joined with the walk
    # path's subset at that depth; slab[0] is the table itself
    slab = np.empty((K - b + 1, 4, width, n))
    slab[0, :, 0] = ((1.0,), (1.0,), (0.0,), (0.0,))
    for k in range(b):
        np.add(slab[0, :, : 1 << k], cols[k], out=slab[0, :, 1 << k : 2 << k])
    # running max, per table column, of (c^2 + d^2 + 2^{|S| R}) / ((1+a)(1+b))
    worst = np.full((width, n), -np.inf)
    sq = np.empty((2, width, n))
    ratio = np.empty((width, n))
    det = np.empty((width, n))
    # (depth, k): extend the path's subset at that depth by user k; a child
    # is pushed after its next sibling, so its whole subtree is done before
    # the sibling overwrites slab[depth + 1]
    stack = [(0, b)] if b < K else []
    depth = 0
    while True:
        sums = slab[depth]
        np.square(sums[2:], out=sq)
        np.add(sq[0], sq[1], out=ratio)
        np.add(ratio, level[depth], out=ratio)
        np.multiply(sums[0], sums[1], out=det)
        np.divide(ratio, det, out=ratio)
        np.maximum(worst, ratio, out=worst)
        if not stack:
            return 1.0 - worst.max(axis=0)
        depth, k = stack.pop()
        if k + 1 < K:
            stack.append((depth, k + 1))
            stack.append((depth + 1, k + 1))
        depth += 1
        np.add(slab[depth - 1], cols[k], out=slab[depth])


def _subset_bound_gaps(terms: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-size lower bounds on the subset determinants, less their thresholds.

    By Cauchy-Binet, det(I + s H_S H_S^H) = 1 + sum_{k in S} w_k +
    sum_{k<l in S} p_kl, with w_k = a_k + b_k and p_kl = a_k b_l + a_l b_k
    - 2 (c_k c_l + d_k d_l) = s^2 |h0k h1l - h0l h1k|^2 (a single user's
    a_k b_k - c_k^2 - d_k^2 is 0).  So every size-j subset's determinant is at
    least g_j = 1 + (sum of the j smallest w) + (sum of the C(j, 2) smallest
    p).  g_1 is the weakest user's own determinant and g_K the full set's, so
    both are exact.  For terms from _user_terms, returns the gaps
    g_j - 2^{j R}, shape (K, N) for j = 1..K, and the tolerance
    _MARGIN_TOL (1+A)(1+B), where A and B are the full-set sums of a and b.

    The work is done in workspace slots A and B, and terms is used up: its c
    and d are doubled in place, and slot B (where _user_terms leaves them)
    is overwritten.  The gaps are a view of slot A, valid until the next
    call that uses the workspace.  w and the p_kl are built as the rows of
    one (K + C(K, 2), N) array in slot A, p_kl from c_k and d_k doubled as
    the pass of k begins.  One transposing copy puts each row's w and p in
    slot B as contiguous columns, which are sorted in place; a copy back
    turns them into rows again, and the prefix sums are added row by row.

    Rounding bound, with u = 2^-53 and K <= 12: w_k is off by less than 5u w_k.
    Each of a_k b_l and a_l b_k is off by less than 10u of itself.  Doubling
    is exact, so fl(2c_k c_l) = 2 fl(c_k c_l): each p_kl is the same double
    as with the rounded products doubled.  As |c_k c_l| + |d_k d_l| <=
    sqrt(a_k b_k a_l b_l) <= (a_k b_l + a_l b_k) / 2, p_kl is off by less
    than 30u (a_k b_l + a_l b_k) and |p_kl| stays below 2 (a_k b_l + a_l b_k).
    Summed over all pairs these are at most 30u AB and 2AB.  The sort only
    moves values, and each prefix sum adds its sorted terms one at a time in
    ascending order, so it is off by at most 65u times the sum of its terms'
    magnitudes (11u (A+B) for w, 130u AB for p); adding 1 and subtracting
    2^{j R} add 8u (1+A)(1+B).  The p of any size-j subset's pairs sum to at
    least the C(j, 2) smallest, so for every such subset S, det(S) - 2^{j R}
    is at least the computed gap less 200u (1+A)(1+B); for the weakest user
    and the full set the two differ by less than that.  The reference's log2
    argument is off by less than (4|S| + 20) u (1+a)(1+b) <= 68u (1+A)(1+B),
    and a gap can only be small when 2^{j R} <= 2 (1+A)(1+B), where the
    reference's log2 moves its threshold by less than 2,840u (1+A)(1+B)
    (both as derived in _full_mac_margin).  The total stays below 3,110u
    (3.5e-13) of (1+A)(1+B), nearly three times inside the tolerance.
    """
    a, b, c, d = terms  # each (K, N) and contiguous, so no ufunc buffers
    K, n = a.shape
    rows = K + K * (K - 1) // 2
    tol = (1.0 + a.sum(axis=0)) * (1.0 + b.sum(axis=0))
    tol *= _MARGIN_TOL
    stack = _slot("A", K, n)[: rows * n].reshape(rows, n)
    w, pairs = stack[:K], stack[K:]
    # p_kl for l > k in rows lo..hi of pairs, one k per pass; w's rows are
    # scratch until w is written below
    lo = 0
    for k in range(K - 1):
        hi = lo + K - 1 - k
        blk, t = pairs[lo:hi], w[: hi - lo]
        np.multiply(a[k + 1 :], b[k], out=blk)
        blk += np.multiply(b[k + 1 :], a[k], out=t)
        for x in (c, d):
            x[k] *= 2.0
            blk -= np.multiply(x[k + 1 :], x[k], out=t)
        lo = hi
    np.add(a, b, out=w)
    # each row's w and p as contiguous columns of slot B, sorted there (a
    # sort along axis 0 of stack would walk strided columns), then back
    cols = _slot("B", K, n)[: rows * n].reshape(n, rows).T
    np.copyto(cols, stack)
    cols[:K].sort(axis=0)
    cols[K:].sort(axis=0)
    np.copyto(stack, cols)
    # prefix sums, in place and one row per call (np.cumsum along axis 0
    # runs one strided column at a time)
    for x in (w, pairs):
        for i in range(1, x.shape[0]):
            np.add(x[i - 1], x[i], out=x[i])
    for j in range(2, K + 1):
        w[j - 1] += pairs[j * (j - 1) // 2 - 1]
    w += 1.0
    w -= np.exp2(np.arange(1, K + 1) * rate)[:, None]
    return w, tol


def outage_trial_full_mac(chan, snr: SnrPoint, K: int, r, offset: float):
    """Outage of the full K-user MAC, flag for flag equal to
    full_mac_outage_reference.

    chan has shape (..., 2, K).  Guarded to K <= 12.  Each row is decided in
    one of three ways, with no log2:

    - the Cauchy-Binet bound of _subset_bound_gaps beats 2^{j R} at every
      size j by more than its tolerance: not in outage;
    - the exact size-1 (weakest user) or size-K (full set) check fails by
      more than that tolerance: in outage;
    - otherwise every subset is checked by the drift-free table and walk of
      _full_mac_margin, and the row is in outage iff its minimum relative
      margin is negative.  Rows whose margin lies within _MARGIN_TOL of zero
      (or is not finite) are too close to call under rounding and are
      re-decided by the reference evaluator.
    """
    _check_users(K)
    if K > MAX_FULL_MAC_USERS:
        raise ValueError(f"subset enumeration is limited to K <= {MAX_FULL_MAC_USERS}")
    h = np.asarray(chan)
    if h.shape[-1] != K:
        raise ValueError(f"expected {K} user columns, got {h.shape[-1]}")
    rows = h.reshape(-1, 2, K)
    s, rate = snr.snr_linear, _rate(float(r), snr, offset)
    gaps, tol = _subset_bound_gaps(_user_terms(rows, s), rate)
    out = (gaps[0] < -tol) | (gaps[-1] < -tol)
    walk = ~out & ~(gaps > tol).all(axis=0)
    if walk.any():
        sub = rows[walk]
        margin = _full_mac_margin(sub, s, K, rate)
        flags = margin < 0.0
        unsure = ~(np.abs(margin) > _MARGIN_TOL)
        if unsure.any():
            flags[unsure] = full_mac_outage_reference(sub[unsure], snr, K, r, offset)
        out[walk] = flags
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


def _block_counts(task) -> list[int]:
    """Outage counts per SNR point over the blocks of task (spec, i, n):
    blocks i, i + n, i + 2n, ... of the sweep, where block j is block
    j mod B of SNR point j // B, for B = ceil(trials / BLOCK_TRIALS) blocks
    a point.  The blocks are generated, never listed, and each is drawn into
    the thread's workspace buffer "draw", which grows to the largest block
    drawn, so sweeps in one process allocate their channel draws once."""
    spec, first, step = task
    # the predicate and the channel shape of one row; the predicates are
    # looked up per call, so a wrapper set on the module attribute is used
    predicate, row_shape = {
        "tdma": (outage_trial_tdma, (2,)),
        "pair": (outage_trial_pair, (2, 2)),
        "full-mac": (outage_trial_full_mac, (2, spec.K)),
    }[spec.scheme]
    per_point = -(-spec.trials // BLOCK_TRIALS)
    counts = [0] * len(spec.snr_grid_db)
    for j in range(first, len(counts) * per_point, step):
        snr_idx, block_idx = divmod(j, per_point)
        size = min(BLOCK_TRIALS, spec.trials - block_idx * BLOCK_TRIALS)
        buf = _workspace.take("draw", 2 * math.prod(row_shape) * size)
        chan = draw_cn(trial_rng(spec.seed, snr_idx, block_idx), (size, *row_shape), out=buf)
        snr = SnrPoint(spec.snr_grid_db[snr_idx])
        counts[snr_idx] += int(predicate(chan, snr, spec.K, spec.r, spec.rate_offset_bits).sum())
    return counts


def run_outage_sweep(spec: OutageSpec, workers: int = 1) -> OutageEstimate:
    """Run the sweep; counts are identical for any worker count.

    The blocks are dealt round-robin into one task per worker; a task names
    its first block and the stride, so its size does not grow with trials.
    """
    n_blocks = len(spec.snr_grid_db) * -(-spec.trials // BLOCK_TRIALS)
    n_tasks = min(max(workers or 1, 1), n_blocks)
    tasks = [(spec, i, n_tasks) for i in range(n_tasks)]
    counts = [sum(c) for c in zip(*map_tasks(_block_counts, tasks, workers))]
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
