"""Exact maximum-likelihood decoding of the per-session linear systems.

Decoding runs in two stages.  The first is stacked: factor_sessions takes
the received matrices and per-user channel arrays of every session of a
batch that shares a shape, builds their equivalent channels and real
expansions with one call each, validates the stack once (DecodeProblem) and
QR-factors it with one np.linalg.qr call (factor).  numpy
factors a stack matrix by matrix with the same LAPACK routines, so every R
equals the one a per-session factorization gives, bit for bit; the stacked
products for Q^T y and the residual offset likewise run, per session, the
BLAS routines of the 2-D products of a lone system.  The second stage runs
per session: decode_session runs the exact search on one factored system
and returns its DecodeResult, whose integer coordinates hold six PAM levels
per active helper; the protocol unlifts them and builds no lattice point.

sphere_decode enumerates the finite coordinate alphabet depth-first after the
QR factorization: natural column order, per-level candidates sorted by their
partial-metric increment, radius set by each completed leaf (the initial
radius is infinite, so the search can never come back empty).  Pruning is
strict (> radius), which lets exact metric ties reach the leaves; ties are
broken toward the lexicographically smallest coordinate vector.  The result
is therefore the exact ML minimizer, bit-for-bit comparable against
brute_force_ml, the definitional oracle (chunked exhaustive argmin in
lexicographic order with the same tie rule).  A rank-deficient R is searched
the same way, with its near-zero diagonal entries set to exactly 0: every
candidate of such a level then has the same increment, and the tie rule
picks the smallest level wherever the metric does not depend on it.

The search itself runs on Python floats and lists (R and Q^T y converted
once per problem, R[l][l] * a precomputed per level), which costs about half
as much per visited node as numpy scalars.  The interference term of each
node is summed in ascending column order, so the partial metrics can differ
from a numpy dot product in the last bits; the tests keep a numpy-node
search as the reference and require equal coordinates and node counts.

The reported metric is the full residual ||y - A x||^2: the enumeration
works with the reduced metric ||Q^T y - R x||^2 and the constant component
of y orthogonal to the column span is added back at the end, so sphere and
oracle metrics agree even for strictly tall systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import SnrPoint
from .encoder import build_equivalent_channel, dispersion_basis, realify
from .lift import pam_levels

#: diagonal magnitude below which R is treated as rank-deficient (and zeroed)
_RANK_TOL = 1e-10

#: brute-force search spaces beyond this many leaves are refused
_ORACLE_GUARD = 1 << 24

_ORACLE_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class DecodeProblem:
    """Real integer least-squares instances over one finite PAM alphabet.

    matrix is one rows x cols system, with observation of length rows, or a
    stack (S, rows, cols) of systems with observations (S, rows).  Shape,
    alphabet and finiteness are checked once for the whole stack.
    """

    matrix: np.ndarray
    observation: np.ndarray
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        obs = np.asarray(self.observation, dtype=float)
        if mat.ndim not in (2, 3):
            raise ValueError("matrix must be one system or a stack of systems")
        if mat.shape[-2] < mat.shape[-1]:
            raise ValueError("matrix must be square or tall (n_r*T >= K*s)")
        if mat.ndim == 2:
            obs = obs.reshape(-1)
        if obs.shape != mat.shape[:-1]:
            raise ValueError("observation length must match the row count")
        if not self.levels:
            raise ValueError("alphabet must be nonempty")
        # a finite sum proves every entry finite; a non-finite sum (which an
        # overflow can also give) is settled entry by entry
        if not math.isfinite(mat.sum() + obs.sum()) and not (
            np.isfinite(mat).all() and np.isfinite(obs).all()
        ):
            raise ValueError("matrix and observation must be finite")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "observation", obs)
        object.__setattr__(self, "levels", _canonical_levels(tuple(self.levels)))


@lru_cache(maxsize=64)
def _canonical_levels(levels: tuple) -> tuple[int, ...]:
    """The distinct levels as ascending Python ints."""
    return tuple(sorted(set(int(v) for v in levels)))


@dataclass(frozen=True)
class DecodeResult:
    """The ML coordinates, their full residual metric and the search effort.

    fallback is True when R was rank-deficient (a diagonal entry below
    1e-10, searched as exactly 0).
    """

    coordinates: tuple[int, ...]
    metric: float
    visited_nodes: int
    fallback: bool = False


@dataclass(frozen=True, eq=False)
class FactoredProblem:
    """One system of a factored stack: the system itself (matrix, observation
    and alphabet, as in DecodeProblem), its R factor, z = Q^T y and offset,
    the squared norm of the component of y outside the column span."""

    matrix: np.ndarray
    observation: np.ndarray
    levels: tuple[int, ...]
    r: np.ndarray
    z: np.ndarray
    offset: float


def factor(p: DecodeProblem) -> list[FactoredProblem]:
    """QR-factor every system of p with one np.linalg.qr call.

    A single system is factored as a stack of one.  z and the residual come
    from stacked matmuls, which numpy evaluates system by system with the
    same BLAS products as a lone 2-D factorization (bit-identical, checked
    against per-system products in the tests).
    """
    mats = p.matrix if p.matrix.ndim == 3 else p.matrix[None]
    obs = p.observation.reshape(mats.shape[:-1])
    q, r = np.linalg.qr(mats)
    z = (q.transpose(0, 2, 1) @ obs[..., None])[..., 0]
    resid = obs - (q @ z[..., None])[..., 0]
    offset = (resid[:, None, :] @ resid[..., None])[:, 0, 0].tolist()
    return [
        FactoredProblem(a, y, p.levels, ri, zi, oi)
        for a, y, ri, zi, oi in zip(mats, obs, r, z, offset)
    ]


def _check_one_system(p) -> None:
    if p.matrix.ndim != 2:
        raise ValueError("a decoder takes one system; factor a stack and decode each")


def sphere_decode(p: DecodeProblem | FactoredProblem) -> DecodeResult:
    """Exact ML search by depth-first enumeration with a shrinking radius.

    p is one factored system, or a single DecodeProblem, which is factored
    first.  A rank-deficient R (diagonal below 1e-10) is enumerated with
    those diagonal entries set to exactly 0, and the event is flagged in the
    result's fallback field.
    """
    _check_one_system(p)
    if not isinstance(p, FactoredProblem):
        (p,) = factor(p)
    n = p.r.shape[1]
    rows = p.r.tolist()
    zl = p.z.tolist()
    rank_deficient = False
    for l, row in enumerate(rows):
        if abs(row[l]) < _RANK_TOL:
            row[l] = 0.0
            rank_deficient = True
    # (R[l][l] * a, a) per level l, candidates a in ascending order
    scaled = [[(row[l] * a, a) for a in p.levels] for l, row in enumerate(rows)]
    x = [0] * n
    best_coords: tuple[int, ...] | None = None
    best_metric = math.inf
    visited = 0

    def descend(level: int, dist: float) -> None:
        nonlocal best_coords, best_metric, visited
        row = rows[level]
        acc = 0.0
        for j in range(level + 1, n):
            acc += row[j] * x[j]
        rhs = zl[level] - acc
        for inc, val in sorted([((rhs - ra) * (rhs - ra), a) for ra, a in scaled[level]]):
            visited += 1
            nd = dist + inc
            if nd > best_metric:
                return  # candidates are sorted, the rest are no better
            x[level] = val
            if level:
                descend(level - 1, nd)
            elif nd < best_metric:
                best_metric = nd
                best_coords = tuple(x)
            elif tuple(x) < best_coords:  # an exact tie: lexicographic rule
                best_coords = tuple(x)

    descend(n - 1, 0.0)
    return DecodeResult(best_coords, best_metric + p.offset, visited, rank_deficient)


def _candidates(levels: tuple[int, ...], n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic table of all len(levels)^n
    coordinate vectors, as floats."""
    base = len(levels)
    places = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    idx = np.arange(start, stop, dtype=np.int64)
    digits = (idx[:, None] // places[None, :]) % base
    return np.asarray(levels, dtype=float)[digits]


@lru_cache(maxsize=16)
def _candidate_table(levels: tuple[int, ...], n: int) -> np.ndarray:
    """The whole table of a search space that fits one oracle chunk, built
    once per (levels, n) and kept read-only (at most 2^14 rows of at most 14
    floats, under 2 MB)."""
    table = _candidates(levels, n, 0, len(levels) ** n)
    table.flags.writeable = False
    return table


def brute_force_ml(p: DecodeProblem | FactoredProblem) -> DecodeResult:
    """Exhaustive argmin of ||y - A x||^2 over the alphabet (the ML oracle).

    p is one system.  Candidates are enumerated in lexicographic order and
    compared strictly, which realizes the lexicographic tie rule.  Search
    spaces larger than 2^24 leaves are refused.
    """
    _check_one_system(p)
    n = p.matrix.shape[1]
    base = len(p.levels)
    total = base**n
    if total > _ORACLE_GUARD:
        raise ValueError(f"search space {total} exceeds the 2^24 oracle guard")
    at = p.matrix.T
    best_metric = math.inf
    best_coords: tuple[int, ...] | None = None
    for start in range(0, total, _ORACLE_CHUNK):
        if total <= _ORACLE_CHUNK:
            cand = _candidate_table(p.levels, n)
        else:
            cand = _candidates(p.levels, n, start, min(start + _ORACLE_CHUNK, total))
        diff = cand @ at - p.observation
        metrics = np.einsum("ij,ij->i", diff, diff)
        j = int(np.argmin(metrics))  # first occurrence = lexicographically smallest
        if metrics[j] < best_metric:
            best_metric = float(metrics[j])
            best_coords = tuple(int(v) for v in cand[j])
    return DecodeResult(best_coords, best_metric, total)


def factor_sessions(received, channels, snr: SnrPoint, m: int) -> list[FactoredProblem]:
    """The factored real systems of sessions with the same number of active
    helpers on the 2^m-QAM constellation (stage one).

    received holds each session's n_r x T received matrix and channels its
    per-user fading (k_active, n_r, 1).  The equivalent channels (absorbing
    the sqrt(SNR) transmit scale) and their real expansions are built for
    the whole stack at once, then validated and QR-factored as one stack.
    """
    eqc = build_equivalent_channel(channels, dispersion_basis(m))
    y = np.asarray(received, dtype=complex)
    # each session's samples stacked column-major, as in vec(Y)
    mat, obs = realify(math.sqrt(snr.snr_linear) * eqc, y.transpose(0, 2, 1))
    return factor(DecodeProblem(mat, obs, pam_levels(m)))


def decode_session(p: FactoredProblem, mode: str = "sphere") -> DecodeResult:
    """ML-decode one factored session with the selected decoder (stage two).

    The result's coordinates hold six PAM levels per active helper, in
    helper order: the real and imaginary parts of its three QAM symbols.
    """
    if mode not in ("sphere", "oracle"):
        raise ValueError(f"mode must be 'sphere' or 'oracle', got {mode!r}")
    return sphere_decode(p) if mode == "sphere" else brute_force_ml(p)
