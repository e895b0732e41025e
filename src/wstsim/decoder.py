"""Exact maximum-likelihood decoding of the per-session linear system.

sphere_decode enumerates the finite coordinate alphabet depth-first after a
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

from .channel import ChannelRealization, SnrPoint
from .encoder import DispersionBasis, build_equivalent_channel, realify
from .lift import LatticePoint, pam_levels
from .algebra import FieldElement, GaussianInt

#: diagonal magnitude below which R is treated as rank-deficient (and zeroed)
_RANK_TOL = 1e-10

#: brute-force search spaces beyond this many leaves are refused
_ORACLE_GUARD = 1 << 24

_ORACLE_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class DecodeProblem:
    """A real integer least-squares instance over a finite PAM alphabet."""

    matrix: np.ndarray
    observation: np.ndarray
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        obs = np.asarray(self.observation, dtype=float).reshape(-1)
        if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
            raise ValueError("matrix must be square or tall (n_r*T >= K*s)")
        if obs.shape[0] != mat.shape[0]:
            raise ValueError("observation length must match the row count")
        if not self.levels:
            raise ValueError("alphabet must be nonempty")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "observation", obs)
        object.__setattr__(self, "levels", tuple(sorted(set(int(v) for v in self.levels))))


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


def sphere_decode(p: DecodeProblem) -> DecodeResult:
    """Exact ML search by depth-first enumeration with a shrinking radius.

    A rank-deficient R (diagonal below 1e-10) is enumerated with those
    diagonal entries set to exactly 0, and the event is flagged in the
    result's fallback field.
    """
    a = p.matrix
    q, r = np.linalg.qr(a)
    deficient = np.abs(np.diag(r)) < _RANK_TOL
    rank_deficient = bool(deficient.any())
    if rank_deficient:
        r[deficient, deficient] = 0.0
    z = q.T @ p.observation
    resid = p.observation - q @ z
    offset = float(resid @ resid)

    n = a.shape[1]
    levels = p.levels
    x = np.zeros(n, dtype=np.int64)
    best_coords: tuple[int, ...] | None = None
    best_metric = math.inf
    visited = 0

    def descend(level: int, dist: float) -> None:
        nonlocal best_coords, best_metric, visited
        rhs = z[level] - float(r[level, level + 1 :] @ x[level + 1 :])
        rll = r[level, level]
        cands = sorted(((rhs - rll * a_) ** 2, a_) for a_ in levels)
        for inc, val in cands:
            visited += 1
            nd = dist + inc
            if nd > best_metric:
                break  # candidates are sorted, the rest are no better
            x[level] = val
            if level == 0:
                coords = tuple(int(v) for v in x)
                if nd < best_metric:
                    best_metric = nd
                    best_coords = coords
                elif nd == best_metric and coords < best_coords:
                    best_coords = coords
            else:
                descend(level - 1, nd)

    descend(n - 1, 0.0)
    return DecodeResult(best_coords, best_metric + offset, visited, rank_deficient)


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


def brute_force_ml(p: DecodeProblem) -> DecodeResult:
    """Exhaustive argmin of ||y - A x||^2 over the alphabet (the ML oracle).

    Candidates are enumerated in lexicographic order and compared strictly,
    which realizes the lexicographic tie rule.  Search spaces larger than
    2^24 leaves are refused.
    """
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


@dataclass(frozen=True, eq=False)
class SessionDecode:
    """Per-user decoded lattice points plus the raw decoder statistics."""

    points: tuple[LatticePoint, ...]
    result: DecodeResult


def decode_session(
    Y: np.ndarray,
    chan: ChannelRealization,
    basis: DispersionBasis,
    snr: SnrPoint,
    m: int,
    mode: str = "sphere",
) -> SessionDecode:
    """ML-decode one received session back to per-user lattice points.

    Builds the equivalent channel (absorbing the sqrt(SNR) transmit scale),
    expands it to real coordinates, runs the selected decoder and regroups
    the real solution into Gaussian-integer QAM coordinates per user.
    """
    if mode not in ("sphere", "oracle"):
        raise ValueError(f"mode must be 'sphere' or 'oracle', got {mode!r}")
    eqc = build_equivalent_channel(list(chan.per_user), basis)
    mat, obs = realify(
        math.sqrt(snr.snr_linear) * eqc.matrix,
        np.asarray(Y, dtype=complex).reshape(-1, order="F"),
    )
    problem = DecodeProblem(mat, obs, pam_levels(m))
    res = sphere_decode(problem) if mode == "sphere" else brute_force_ml(problem)
    coords = res.coordinates
    points = []
    for k in range(eqc.k_active):
        qs = [
            GaussianInt(coords[2 * (k * eqc.s + l)], coords[2 * (k * eqc.s + l) + 1])
            for l in range(eqc.s)
        ]
        points.append(LatticePoint.from_element(FieldElement(qs[0], qs[1], qs[2])))
    return SessionDecode(tuple(points), res)
