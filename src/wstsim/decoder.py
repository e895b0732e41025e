"""Exact maximum-likelihood decoding of the per-session linear systems.

Decoding runs in two stages.  The first is stacked: factor_sessions takes
the received matrices and per-user channel arrays of every session of a
batch that shares a shape, builds their equivalent channels and real
expansions with one call each, validates the stack once (DecodeProblem:
shapes, alphabet, and a bound that keeps every residual metric a finite
double) and QR-factors it with one np.linalg.qr call (factor).  numpy
factors a stack matrix by matrix with the same LAPACK routines, so every R
equals the one a per-session factorization gives, bit for bit; the stacked
products for Q^T y and the residual offset likewise run, per session, the
BLAS routines of the 2-D products of a lone system.  factor then settles
most searches for the whole stack at once with the first-leaf certificate
below, and builds the scalar search's tables (R and z = Q^T y as lists of
floats, and per level l the products R[l][l] * a over the alphabet, with a
diagonal entry below 1e-10 taken as exactly 0) only for the sessions the
certificate leaves to it.  Each system's share, with the rank flag, goes
into a plain FactoredProblem record.
The second stage runs per session: decode_session runs the exact search on
one factored system and returns its DecodeResult, whose integer coordinates
hold six PAM levels per active helper; the protocol unlifts them and builds
no lattice point.

The first-leaf certificate.  The first leaf of the Schnorr-Euchner search
below is the Babai point (Agrell, Eriksson, Vardy and Zeger, IEEE Trans.
IT 2002): the first candidate of every level, top level first.  If every
level's second candidate already lies outside the radius that leaf sets,
the search visits exactly those 2n nodes and returns the leaf, which at
moderate and high SNR is most sessions.  factor runs that descent as one
numpy pass over the stack with the scalar search's float operations in its
order (elementwise adds and products, which numpy neither fuses nor
reorders), so the leaf, its metric and each second candidate's partial
metric are the doubles the scalar search computes.  When every such
partial metric exceeds the leaf metric strictly, the record carries the
finished DecodeResult (the leaf's levels, its metric plus the offset,
n * min(2, |alphabet|) visited nodes, the rank flag) and sphere_decode
returns it.  Everything else falls through to the unchanged scalar search:
a second candidate that ties the leaf metric, a first candidate that ties
its level's second (so an exact tie of increments, and every level of a
rank-deficient R, whose increments are all equal), and any leaf a second
candidate beats.  A certified result is therefore the scalar search's,
field for field.

sphere_decode enumerates the finite coordinate alphabet depth-first after the
QR factorization (Schnorr-Euchner): natural column order, per-level
candidates taken in order of their partial-metric increment (ties toward the
smaller level), radius set by each completed leaf (the initial radius is
infinite, so the search can never come back empty).  Pruning is strict
(> radius), which lets exact metric ties reach the leaves; ties are broken
toward the lexicographically smallest coordinate vector.  The result is
therefore the exact ML minimizer, bit-for-bit comparable against
brute_force_ml, the definitional oracle (chunked exhaustive argmin in
lexicographic order with the same tie rule).  A rank-deficient R is searched
the same way, with its near-zero diagonal entries set to exactly 0: every
candidate of such a level then has the same increment, and the tie rule
picks the smallest level wherever the metric does not depend on it.

The search is a loop over explicit state rather than a recursion: the
current level, each level's untried candidates in order, the partial
metrics, the coordinates x and the best leaf so far.  Entering a level
orders its candidates (a single comparison for a two-level alphabet, a sort
of (increment, level) pairs otherwise) and tries the first; the leaf level
tries all of its candidates in place; a candidate outside the radius, or an
exhausted level, sends the search up to the nearest level with a candidate
left.  Everything runs on Python floats and lists, which costs far less per
visited node than numpy scalars.  Its float operations are those of the
recursive search that the tests keep as the bit-exact oracle, in the same
order: each node's interference term is summed in ascending column order
from 0.0, its increments are (rhs - R[l][l] a)^2 with the products from the
table, and x holds the levels as floats, whose products with R are the same
doubles as with the integer levels.  So coordinates, metrics, node counts
and rank flags do not depend on which of the two runs, nor on the stack a
system was factored in.  A numpy dot product could round the interference
terms differently; the tests also keep a numpy-node search as a reference
for coordinates and node counts.

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

from .channel import SnrPoint, amplitude
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
    stack (S, rows, cols) of systems with observations (S, rows).  Shape and
    alphabet are checked once for the whole stack, and each system must be
    finite with a residual metric that cannot overflow.
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
        levels = _canonical_levels(tuple(self.levels))
        # every residual ||y - A x||^2 over the alphabet is at most
        # (max|a| * sum|A| + sum|y|)^2, and so is every partial metric of the
        # search; twice that bound squared being finite keeps both decoders'
        # metrics finite, rounding included.  A non-finite entry makes it
        # non-finite too.
        top = max(-levels[0], levels[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            bound = top * np.abs(mat).sum(axis=(-2, -1)) + np.abs(obs).sum(axis=-1)
            bounded = np.isfinite(np.square(2.0 * bound)).all()
        if not bounded:
            raise ValueError(
                "matrix and observation must be finite, and small enough that no residual metric overflows"
            )
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "observation", obs)
        object.__setattr__(self, "levels", levels)


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


class FactoredProblem:
    """One system of a factored stack, as its searches read it.

    matrix, observation and levels are the system itself (as in
    DecodeProblem; the brute-force oracle reads them).  The exact search
    reads the rest, built by factor for the whole stack: r, the R factor,
    and z = Q^T y, offset (the squared norm of the component of y outside
    the column span), scaled[l], the products R[l][l] * a over the ascending
    levels a, with a diagonal entry below 1e-10 taken as exactly 0, and
    rank_deficient, whether any was.

    result is the search's DecodeResult when factor's first-leaf
    certificate settled the system, and None otherwise.  A certified
    system keeps r, z and scaled as numpy rows of the stack, which nothing
    on the decoding path reads; the others carry them as lists of floats
    (r row by row), which the scalar search reads.  A plain record, built
    once per session and only read after.
    """

    __slots__ = (
        "matrix", "observation", "levels", "r", "z", "offset", "scaled", "rank_deficient", "result",
    )

    def __init__(self, matrix, observation, levels, r, z, offset, scaled, rank_deficient):
        self.matrix = matrix
        self.observation = observation
        self.levels = levels
        self.r = r
        self.z = z
        self.offset = offset
        self.scaled = scaled
        self.rank_deficient = rank_deficient
        self.result = None


def factor(p: DecodeProblem) -> list[FactoredProblem]:
    """QR-factor every system of p with one np.linalg.qr call, certify the
    first leaf of every search at once, and build the tables the scalar
    search reads for the systems the certificate leaves to it.

    A single system is factored as a stack of one.  z and the residual come
    from stacked matmuls, which numpy evaluates system by system with the
    same BLAS products as a lone 2-D factorization (bit-identical, checked
    against per-system products in the tests); the certificate and the
    tables are elementwise numpy operations and tolist calls, so no
    system's result depends on the stack it was factored in.
    """
    mats = p.matrix if p.matrix.ndim == 3 else p.matrix[None]
    obs = p.observation.reshape(mats.shape[:-1])
    q, r = np.linalg.qr(mats)
    z = (q.transpose(0, 2, 1) @ obs[..., None])[..., 0]
    resid = obs - (q @ z[..., None])[..., 0]
    offset = (resid[:, None, :] @ resid[..., None])[:, 0, 0].tolist()
    diag = np.diagonal(r, axis1=1, axis2=2)
    deficient = np.abs(diag) < _RANK_TOL
    scaled = np.where(deficient, 0.0, diag)[..., None] * np.asarray(p.levels, dtype=float)
    flags = deficient.any(axis=1).tolist()
    certified, coords, leaf = _first_leaf(r, z, scaled, p.levels)
    records = [
        FactoredProblem(a, y, p.levels, ri, zi, oi, si, di)
        for a, y, ri, zi, oi, si, di in zip(mats, obs, r, z, offset, scaled, flags)
    ]
    visited = z.shape[1] * min(2, len(p.levels))
    done = np.flatnonzero(certified)
    for i, xi, li in zip(done.tolist(), coords[done].tolist(), leaf[done].tolist()):
        rec = records[i]
        rec.result = DecodeResult(tuple(xi), li + rec.offset, visited, rec.rank_deficient)
    rest = np.flatnonzero(~certified)
    for i, ri, zi, si in zip(rest.tolist(), r[rest].tolist(), z[rest].tolist(), scaled[rest].tolist()):
        rec = records[i]
        rec.r, rec.z, rec.scaled = ri, zi, si
    return records


def _first_leaf(r, z, scaled, levels):
    """The first-leaf certificate (module docstring) for a whole stack.

    One Babai descent over the stack in the scalar search's float
    operations and order: the interference term summed over ascending
    columns from 0.0, increments (rhs - R[l][l] a)^2, the smallest taken
    with ties toward the smaller level (argmin's first minimum), partial
    metrics summed from the top.  A system is certified when every level's
    second candidate (its parent's partial metric plus the second-smallest
    increment; none for a one-level alphabet) exceeds the leaf metric
    strictly.  Returns, for every system, whether it is certified (S,), its
    first leaf's coordinates (int levels, (S, n)) and that leaf's reduced
    metric (S,).
    """
    size, n = z.shape
    values = np.asarray(levels, dtype=float)
    rt = np.ascontiguousarray(r.transpose(1, 2, 0))  # rt[l, j]: R[l][j] of every system
    st = np.ascontiguousarray(scaled.transpose(1, 2, 0))  # st[l, k]: R[l][l] * levels[k]
    zt = np.ascontiguousarray(z.T)
    x = np.empty((n, size))
    picks = np.empty((n, size), dtype=np.intp)
    dist = np.zeros(size)
    seconds = []
    for level in range(n - 1, -1, -1):
        acc = 0.0
        for j in range(level + 1, n):
            acc = acc + rt[level, j] * x[j]
        e = (zt[level] - acc) - st[level]
        inc = e * e
        picks[level] = k = inc.argmin(axis=0)
        x[level] = values[k]
        if len(levels) == 2:
            seconds.append(dist + inc.max(axis=0))
        elif len(levels) > 2:
            seconds.append(dist + np.partition(inc, 1, axis=0)[1])
        dist = dist + inc.min(axis=0)
    certified = np.ones(size, dtype=bool)
    for partial in seconds:
        certified &= partial > dist
    return certified, np.asarray(levels)[picks.T], dist


def _check_one_system(p) -> None:
    if p.matrix.ndim != 2:
        raise ValueError("a decoder takes one system; factor a stack and decode each")


@lru_cache(maxsize=64)
def _level_values(levels: tuple[int, ...]) -> tuple[float, ...]:
    """The levels as floats, the values the search gives x."""
    return tuple(float(a) for a in levels)


def sphere_decode(p: DecodeProblem | FactoredProblem) -> DecodeResult:
    """Exact ML search by depth-first enumeration with a shrinking radius.

    p is one factored system, or a single DecodeProblem, which is factored
    first.  A system whose first leaf factor certified returns its stored
    result, the one this search would find.  A rank-deficient R (diagonal
    below 1e-10) is enumerated with those diagonal entries set to exactly 0,
    and the event is flagged in the result's fallback field.
    """
    _check_one_system(p)
    if not isinstance(p, FactoredProblem):
        (p,) = factor(p)
    if p.result is not None:
        return p.result
    rows, zl, scaled = p.r, p.z, p.scaled
    values = _level_values(p.levels)
    size = len(values)
    if size == 2:
        lo, hi = values
    elif size == 4:
        v0, v1, v2, v3 = values
    n = len(zl)
    x = [0.0] * n  # the coordinates as floats, so row[j] * x[j] multiplies two doubles
    dist = [0.0] * (n + 1)  # dist[l + 1]: partial metric of the levels above l
    rest = [None] * n  # each level's untried (increment, value) pairs, next one last
    best_metric = math.inf
    best_coords: tuple[float, ...] | None = None
    visited = 0
    level = n - 1
    while True:
        # enter `level`: its interference term, then its candidates in order
        row = rows[level]
        acc = 0.0
        for j in range(level + 1, n):
            acc += row[j] * x[j]
        rhs = zl[level] - acc
        if size == 2:
            ra0, ra1 = scaled[level]
            i0 = (rhs - ra0) * (rhs - ra0)
            i1 = (rhs - ra1) * (rhs - ra1)
            if i1 < i0:  # exactly when sorted() puts (i1, hi) before (i0, lo)
                inc, val, order = i1, hi, [(i0, lo)]
            else:
                inc, val, order = i0, lo, [(i1, hi)]
        else:
            if size == 4:  # the same increments, written out
                ra0, ra1, ra2, ra3 = scaled[level]
                e0, e1, e2, e3 = rhs - ra0, rhs - ra1, rhs - ra2, rhs - ra3
                pairs = [(e0 * e0, v0), (e1 * e1, v1), (e2 * e2, v2), (e3 * e3, v3)]
            else:
                pairs = [((rhs - ra) * (rhs - ra), a) for ra, a in zip(scaled[level], values)]
            order = sorted(pairs, reverse=True)  # the values differ, so this reverses sorted()
            inc, val = order.pop()
        # try the first candidate; at level 0 try every candidate in turn
        visited += 1
        nd = dist[level + 1] + inc
        if level:
            if nd <= best_metric:
                x[level] = val
                dist[level] = nd
                rest[level] = order
                level -= 1
                continue
        else:
            while nd <= best_metric:
                x[0] = val
                if nd < best_metric:
                    best_metric = nd
                    best_coords = tuple(x)
                elif tuple(x) < best_coords:  # an exact tie: lexicographic rule
                    best_coords = tuple(x)
                if not order:
                    break
                inc, val = order.pop()
                visited += 1
                nd = dist[1] + inc
        # climb to the nearest level with a candidate inside the radius;
        # candidates are in order, so one outside it ends its level
        level += 1
        while level < n:
            order = rest[level]
            if order:
                inc, val = order.pop()
                visited += 1
                nd = dist[level + 1] + inc
                if nd <= best_metric:
                    x[level] = val
                    dist[level] = nd
                    level -= 1
                    break
            level += 1
        else:
            coords = tuple(map(int, best_coords))
            return DecodeResult(coords, best_metric + p.offset, visited, p.rank_deficient)


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


def factor_sessions(received, channels, snr: SnrPoint | np.ndarray, m: int) -> list[FactoredProblem]:
    """The factored real systems of sessions with the same number of active
    helpers on the 2^m-QAM constellation (stage one).

    received holds each session's n_r x T received matrix and channels its
    per-user fading (k_active, n_r, 1).  snr is an SnrPoint for every
    session, or each session's amplitude sqrt(snr_linear) as an array
    (channel.amplitudes), as transmit takes it.  The equivalent channels
    (absorbing the transmit scale) and their real expansions are built for
    the whole stack at once, then validated and QR-factored as one stack.
    """
    eqc = build_equivalent_channel(channels, dispersion_basis(m))
    y = np.asarray(received, dtype=complex)
    # each session's samples stacked column-major, as in vec(Y)
    mat, obs = realify(amplitude(snr) * eqc, y.transpose(0, 2, 1))
    return factor(DecodeProblem(mat, obs, pam_levels(m)))


def decode_session(p: FactoredProblem, mode: str = "sphere") -> DecodeResult:
    """ML-decode one factored session (stage two): mode "sphere" runs
    sphere_decode, mode "ml" the exhaustive brute_force_ml.

    The result's coordinates hold six PAM levels per active helper, in
    helper order: the real and imaginary parts of its three QAM symbols.
    """
    if mode not in ("sphere", "ml"):
        raise ValueError(f"mode must be 'sphere' or 'ml', got {mode!r}")
    return sphere_decode(p) if mode == "sphere" else brute_force_ml(p)
