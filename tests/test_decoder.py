import math

import numpy as np
import pytest

from wstsim.channel import SnrPoint, draw_session, transmit, trial_rng
from wstsim.decoder import (
    DecodeProblem,
    DecodeResult,
    FactoredProblem,
    _first_leaf,
    brute_force_ml,
    decode_session,
    factor,
    factor_sessions,
    sphere_decode,
)
from wstsim.encoder import (
    build_equivalent_channel,
    build_pair_codeword,
    build_tdma_codeword,
    dispersion_basis,
    realify,
)
from wstsim.lift import lift, pam_levels, random_fragment
from wstsim.protocol import run_session_trials

from conftest import decode_one


def random_problem(rng, rows=8, cols=6, levels=(-1, 1), noise=0.0):
    a = rng.standard_normal((rows, cols))
    x = np.array([levels[i] for i in rng.integers(0, len(levels), size=cols)])
    y = a @ x + noise * rng.standard_normal(rows)
    return DecodeProblem(a, y, levels), x


def reference_sphere_decode(p: DecodeProblem) -> DecodeResult:
    """The same depth-first search with numpy nodes: a numpy dot for each
    node's interference term and numpy scalars throughout.  sphere_decode
    must match it in coordinates, visited nodes and the rank flag."""
    q, r = np.linalg.qr(p.matrix)
    deficient = np.abs(np.diag(r)) < 1e-10
    rank_deficient = bool(deficient.any())
    if rank_deficient:
        r[deficient, deficient] = 0.0
    z = q.T @ p.observation
    resid = p.observation - q @ z
    offset = float(resid @ resid)

    n = p.matrix.shape[1]
    x = np.zeros(n, dtype=np.int64)
    best_coords = None
    best_metric = math.inf
    visited = 0

    def descend(level, dist):
        nonlocal best_coords, best_metric, visited
        rhs = z[level] - float(r[level, level + 1 :] @ x[level + 1 :])
        rll = r[level, level]
        cands = sorted(((rhs - rll * a_) ** 2, a_) for a_ in p.levels)
        for inc, val in cands:
            visited += 1
            nd = dist + inc
            if nd > best_metric:
                break
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


def recursive_sphere_decode(r, z, offset, levels) -> DecodeResult:
    """sphere_decode as it was before the state machine: a recursive search
    over tables built per session from the 2-D arrays r and z = Q^T y, with
    a sorted list per node.  Kept verbatim (p.r, p.z, p.offset and p.levels
    are now arguments) as the bit-exact oracle: the state machine must
    return the same DecodeResult, metric bits included."""
    n = r.shape[1]
    rows = r.tolist()
    zl = z.tolist()
    rank_deficient = False
    for l, row in enumerate(rows):
        if abs(row[l]) < 1e-10:
            row[l] = 0.0
            rank_deficient = True
    # (R[l][l] * a, a) per level l, candidates a in ascending order
    scaled = [[(row[l] * a, a) for a in levels] for l, row in enumerate(rows)]
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
    return DecodeResult(best_coords, best_metric + offset, visited, rank_deficient)


def per_matrix_factor(a, y):
    """R, z = Q^T y and the out-of-span residual offset of one 2-D system."""
    q, r = np.linalg.qr(a)
    z = q.T @ y
    resid = y - q @ z
    return r, z, float(resid @ resid)


def assert_equals_oracle(p: DecodeProblem) -> DecodeResult:
    """sphere_decode against the recursive oracle on the system factored on
    its own: the whole DecodeResult, metric compared with ==."""
    new = sphere_decode(p)
    old = recursive_sphere_decode(*per_matrix_factor(p.matrix, p.observation), p.levels)
    assert new == old and new.metric == old.metric
    assert all(type(c) is int for c in new.coordinates)
    return new


def assert_matches_reference(p: DecodeProblem) -> DecodeResult:
    res = sphere_decode(p)
    ref = reference_sphere_decode(p)
    assert res.coordinates == ref.coordinates
    assert res.visited_nodes == ref.visited_nodes
    assert res.fallback == ref.fallback
    assert abs(res.metric - ref.metric) <= 1e-12 * max(abs(ref.metric), 1e-300)
    return res


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------


def test_noiseless_recovery_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p, x = random_problem(rng)
        res = sphere_decode(p)
        assert res.coordinates == tuple(x)
        assert res.metric < 1e-18


def test_sphere_equals_oracle_on_noisy_problems():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p, _ = random_problem(rng, noise=1.0)
        a = sphere_decode(p)
        b = brute_force_ml(p)
        assert a.coordinates == b.coordinates
        assert abs(a.metric - b.metric) < 1e-9


def test_sphere_equals_oracle_on_pair_sessions():
    snr = SnrPoint(10.0)
    for t in range(300):
        rng = trial_rng(2024, t)
        p1, p2 = lift(random_fragment(rng, 2), 2), lift(random_fragment(rng, 2), 2)
        X = build_pair_codeword(p1, p2, 2)
        h, w = draw_session(rng, 2, 1, 2, 3)
        Y = transmit(X, h, w, snr)
        a = decode_one(Y, h, snr, 2, mode="sphere")
        b = decode_one(Y, h, snr, 2, mode="ml")
        assert a.coordinates == b.coordinates
        assert abs(a.metric - b.metric) < 1e-9


@pytest.mark.parametrize(
    "m,rows,cols",
    [(m, 6, 6) for m in (2, 4, 6)] + [(m, 9, 6) for m in (2, 4, 6)]
    + [(m, 12, 5) for m in (2, 4, 6)] + [(2, 12, 12), (4, 12, 12), (6, 8, 8)],
)
def test_sphere_equals_numpy_node_reference(m, rows, cols):
    levels = pam_levels(m)
    rng = np.random.default_rng([m, rows, cols])
    for noise in (0.3, 1.0, 3.0):
        for _ in range(25):
            p, _ = random_problem(rng, rows, cols, levels, noise)
            assert_matches_reference(p)


@pytest.mark.parametrize("m,scheme", [(2, "pair"), (4, "pair"), (2, "tdma"), (4, "tdma")])
def test_sphere_equals_numpy_node_reference_on_sessions(m, scheme):
    k_act = 2 if scheme == "pair" else 1
    basis = dispersion_basis(m)
    for t in range(60):
        snr = SnrPoint((5.0, 15.0, 25.0)[t % 3])
        rng = trial_rng(4321, t)
        points = [lift(random_fragment(rng, m), m) for _ in range(k_act)]
        X = build_pair_codeword(*points, m) if k_act == 2 else build_tdma_codeword(*points, m)
        h, w = draw_session(rng, 2, 1, k_act, 3)
        Y = transmit(X, h, w, snr)
        eqc = build_equivalent_channel(h, basis)
        mat, obs = realify(math.sqrt(snr.snr_linear) * eqc, Y.reshape(-1, order="F"))
        assert_matches_reference(DecodeProblem(mat, obs, pam_levels(m)))


ALPHABETS = {1: (5,), 2: pam_levels(2), 4: pam_levels(4), 8: pam_levels(6)}


@pytest.mark.parametrize("size", sorted(ALPHABETS))
@pytest.mark.parametrize("rows,cols", [(6, 6), (12, 12), (9, 6), (12, 5)])
def test_state_machine_equals_recursive_oracle(size, rows, cols):
    levels = ALPHABETS[size]
    rng = np.random.default_rng([size, rows, cols])
    for noise in (0.0, 0.3, 1.0, 3.0):
        for _ in range(40 if size < 8 else 5):
            p, _ = random_problem(rng, rows, cols, levels, noise)
            assert_equals_oracle(p)


@pytest.mark.parametrize("size", sorted(ALPHABETS))
@pytest.mark.parametrize("tall", [0, 3])
def test_state_machine_equals_recursive_oracle_on_exact_ties(size, tall):
    # upper-triangular integer systems factor exactly (Q = I, R = A), and
    # half-integer observations make many increments, and partial metrics,
    # exactly equal; y = 0 on the identity ties the two candidates of every
    # level (i0 == i1 at each node of a two-level search)
    levels = ALPHABETS[size]
    rng = np.random.default_rng([size, tall, 7])
    n = 6 if size < 8 else 4
    eye = np.vstack([np.eye(n), np.zeros((tall, n))])
    assert_equals_oracle(DecodeProblem(eye, np.zeros(n + tall), levels))
    for _ in range(150):
        a = np.triu(rng.integers(-2, 3, (n, n))).astype(float)
        a[np.diag_indices(n)] = rng.choice([-2.0, -1.0, 1.0, 2.0], n)
        a = np.vstack([a, np.zeros((tall, n))])
        y = 0.5 * rng.integers(-4 * max(levels), 4 * max(levels) + 1, n + tall)
        assert_equals_oracle(DecodeProblem(a, y, levels))


@pytest.mark.parametrize("m", [2, 6])
def test_state_machine_equals_recursive_oracle_when_rank_deficient(m):
    rng = np.random.default_rng([m, 13])
    levels = pam_levels(m)
    for cols, tall in ((6, 0), (6, 2), (12, 0)):
        if m == 6 and cols == 12:
            continue  # 8^12 leaves: covered beyond the guard below
        for dead in ((0,), (cols - 1,), (1, 3)):
            p, _ = random_problem(rng, cols + tall, cols, levels, noise=0.5)
            a = p.matrix.copy()
            a[:, list(dead)] = 0.0
            res = assert_equals_oracle(DecodeProblem(a, p.observation, levels))
            assert res.fallback


def test_state_machine_equals_recursive_oracle_beyond_oracle_guard():
    rng = np.random.default_rng(12)
    levels = pam_levels(6)
    for col in (3, 11):
        p, _ = random_problem(rng, rows=12, cols=12, levels=levels, noise=0.5)
        a = p.matrix.copy()
        a[:, col] = 0.0
        assert assert_equals_oracle(DecodeProblem(a, p.observation, levels)).fallback


def test_scalar_problem_quantizes_to_closest_level():
    p = DecodeProblem(np.array([[2.0]]), np.array([4.3]), (-3, -1, 1, 3))
    for decode in (sphere_decode, brute_force_ml):
        res = decode(p)
        assert res.coordinates == (3,)  # 4.3 / 2 = 2.15 -> closest odd level 3


def test_single_candidate_alphabet():
    p = DecodeProblem(np.eye(3), np.array([9.0, -9.0, 0.0]), (5,))
    res = brute_force_ml(p)
    assert res.coordinates == (5, 5, 5)


def test_tie_breaking_is_lexicographic():
    # both +-1 give the same metric in each coordinate; the lexicographically
    # smallest full vector must win in both decoders
    p = DecodeProblem(np.eye(2), np.zeros(2), (-1, 1))
    a = assert_matches_reference(p)
    b = brute_force_ml(p)
    assert a.coordinates == b.coordinates == (-1, -1)
    assert abs(a.metric - b.metric) < 1e-12


def test_oracle_guard():
    with pytest.raises(ValueError):
        brute_force_ml(DecodeProblem(np.eye(30), np.zeros(30), (-1, 1)))


def test_problem_validation():
    with pytest.raises(ValueError):
        DecodeProblem(np.zeros((3, 4)), np.zeros(3), (-1, 1))  # wide matrix
    with pytest.raises(ValueError):
        DecodeProblem(np.eye(3), np.zeros(2), (-1, 1))  # length mismatch


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_inputs(bad):
    mat = np.eye(3)
    mat[1, 2] = bad
    with pytest.raises(ValueError):
        DecodeProblem(mat, np.zeros(3), (-1, 1))
    with pytest.raises(ValueError):
        DecodeProblem(np.eye(3), np.array([0.0, bad, 0.0]), (-1, 1))


def test_rank_deficient_falls_back_to_oracle():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # second column zero
    y = np.array([0.9, 0.0, 0.0])
    p = DecodeProblem(a, y, (-1, 1))
    res = assert_matches_reference(p)
    assert res.fallback
    oracle = brute_force_ml(p)
    assert res.coordinates == oracle.coordinates
    assert abs(res.metric - oracle.metric) < 1e-12


def test_rank_deficient_m6_matches_oracle():
    # a zero column at m = 6: the enumeration ties on that coordinate and
    # must land on the oracle's lexicographically smallest minimizer
    rng = np.random.default_rng(11)
    levels = pam_levels(6)
    for col in (0, 3, 5):
        p, _ = random_problem(rng, rows=6, cols=6, levels=levels, noise=0.5)
        a = p.matrix.copy()
        a[:, col] = 0.0
        p = DecodeProblem(a, p.observation, levels)
        res = assert_matches_reference(p)
        oracle = brute_force_ml(p)
        assert res.fallback
        assert res.coordinates == oracle.coordinates
        assert res.coordinates[col] == levels[0]
        assert abs(res.metric - oracle.metric) < 1e-9


def test_rank_deficient_beyond_oracle_guard():
    # 8^12 leaves exceed the brute-force guard; the search must still return
    # the minimizer of the reduced problem, with the dead coordinate at the
    # smallest level
    rng = np.random.default_rng(12)
    levels = pam_levels(6)
    p, _ = random_problem(rng, rows=12, cols=12, levels=levels, noise=0.5)
    col = 3
    a = p.matrix.copy()
    a[:, col] = 0.0
    res = sphere_decode(DecodeProblem(a, p.observation, levels))
    reduced = sphere_decode(DecodeProblem(np.delete(a, col, axis=1), p.observation, levels))
    assert res.fallback
    assert not reduced.fallback
    assert abs(res.metric - reduced.metric) < 1e-9
    assert res.coordinates[col] == levels[0]
    assert res.coordinates[:col] + res.coordinates[col + 1 :] == reduced.coordinates


def test_metric_includes_out_of_span_residual():
    # strictly tall system: the component of y orthogonal to the column
    # space must appear in the reported metric (oracle agreement)
    rng = np.random.default_rng(3)
    p, _ = random_problem(rng, rows=10, cols=3, noise=2.0)
    a = sphere_decode(p)
    b = brute_force_ml(p)
    assert abs(a.metric - b.metric) < 1e-9
    assert a.metric > 1.0  # the perpendicular residual is macroscopic here


# ---------------------------------------------------------------------------
# session-level pipeline
# ---------------------------------------------------------------------------


def test_zero_noise_roundtrip_sessions():
    snr = SnrPoint(12.0)
    for t in range(1000):
        rng = trial_rng(5150, t)
        scheme = "pair" if t % 2 == 0 else "tdma"
        k_act = 2 if scheme == "pair" else 1
        frags = [random_fragment(rng, 2) for _ in range(k_act)]
        points = [lift(f, 2) for f in frags]
        if k_act == 2:
            X = build_pair_codeword(points[0], points[1], 2)
        else:
            X = build_tdma_codeword(points[0], 2)
        h, _ = draw_session(rng, 2, 1, k_act, 3)
        Y = transmit(X, h, np.zeros((2, 3), dtype=complex), snr)
        dec = decode_one(Y, h, snr, 2)
        assert dec.coordinates == tuple(c for p in points for c in p.coordinates)
        assert dec.metric < 1e-12


def test_decode_session_mode_validation():
    rng = trial_rng(1)
    h, _ = draw_session(rng, 2, 1, 1, 3)
    with pytest.raises(ValueError):
        decode_session(factor_sessions([np.zeros((2, 3))], [h], SnrPoint(0.0), 2)[0], "zf")


def test_visited_nodes_shrink_with_snr():
    means = []
    for db in (5.0, 15.0, 25.0):
        results = run_session_trials(2, SnrPoint(db), "pair", "sphere", 77, range(1000))
        means.append(sum(visited for _, visited in results) / 1000)
    assert means[0] > means[1] > means[2]


def test_session_error_rate_30db_oracle_regression():
    # frozen Monte Carlo baseline: zero session errors in 1e4 oracle trials
    # at 30 dB (rate << 1e-2); determinism makes the count reproducible
    results = run_session_trials(2, SnrPoint(30.0), "pair", "ml", 1234, range(10**4))
    errors = sum(errored for errored, _ in results)
    assert errors == 0
    assert errors / 10**4 < 1e-2


# ---------------------------------------------------------------------------
# the first-leaf certificate
# ---------------------------------------------------------------------------


def scalar_search(rec: FactoredProblem) -> DecodeResult:
    """The scalar loop on a factored record, whatever the certificate said:
    the same system with its tables as lists and no stored result."""
    r, z, scaled = (np.asarray(t).tolist() for t in (rec.r, rec.z, rec.scaled))
    bare = FactoredProblem(
        rec.matrix, rec.observation, rec.levels, r, z, rec.offset, scaled, rec.rank_deficient
    )
    assert bare.result is None
    return sphere_decode(bare)


def certified_results(mats, obs, levels) -> int:
    """Factor a stack and check every certified record against the scalar
    loop and the recursive oracle (the whole DecodeResult, metric with ==);
    returns how many records were certified."""
    certified = 0
    for rec in factor(DecodeProblem(mats, obs, levels)):
        if rec.result is None:
            continue
        certified += 1
        scalar = scalar_search(rec)
        oracle = recursive_sphere_decode(*per_matrix_factor(rec.matrix, rec.observation), levels)
        assert rec.result == scalar == oracle
        assert rec.result.metric == scalar.metric == oracle.metric
        assert all(type(c) is int for c in rec.result.coordinates)
        assert sphere_decode(rec) is rec.result
    return certified


@pytest.mark.parametrize("size", sorted(ALPHABETS))
@pytest.mark.parametrize("rows,cols", [(6, 6), (12, 12), (9, 6), (12, 5)])
def test_certified_results_equal_the_scalar_search(size, rows, cols):
    levels = ALPHABETS[size]
    rng = np.random.default_rng([size, rows, cols, 21])
    count = 40 if size < 8 else 8
    certified = 0
    for noise in (0.0, 0.01, 0.3, 1.0):
        a = rng.standard_normal((count, rows, cols))
        x = np.asarray(levels)[rng.integers(0, size, (count, cols))]
        y = np.einsum("sij,sj->si", a, x) + noise * rng.standard_normal((count, rows))
        certified += certified_results(a, y, levels)
    assert certified >= count  # every noiseless system at least
    if size == 1:
        assert certified == 4 * count  # no second candidate to refute the first leaf


@pytest.mark.parametrize("size", sorted(ALPHABETS))
@pytest.mark.parametrize("tall", [0, 3])
def test_certified_results_equal_the_scalar_search_on_exact_ties(size, tall):
    # the integer systems of the exact-tie corpus above, as one stack
    levels = ALPHABETS[size]
    rng = np.random.default_rng([size, tall, 7])
    n = 6 if size < 8 else 4
    a = np.triu(rng.integers(-2, 3, (150, n, n))).astype(float)
    a[:, np.arange(n), np.arange(n)] = rng.choice([-2.0, -1.0, 1.0, 2.0], (150, n))
    a = np.concatenate([a, np.zeros((150, tall, n))], axis=1)
    y = 0.5 * rng.integers(-4 * max(levels), 4 * max(levels) + 1, (150, n + tall))
    certified_results(a, y, levels)


@pytest.mark.parametrize("m", [2, 6])
def test_rank_deficient_systems_are_left_to_the_scalar_search(m):
    rng = np.random.default_rng([m, 31])
    levels = pam_levels(m)
    a = rng.standard_normal((30, 6, 6))
    y = rng.standard_normal((30, 6))
    a[:10, :, 0] = 0.0
    a[10:20, :, 5] = 0.0
    a[20:, :, 3] = a[20:, :, 2]  # two equal columns
    for rec in factor(DecodeProblem(a, y, levels)):
        assert rec.rank_deficient and rec.result is None
        oracle = recursive_sphere_decode(*per_matrix_factor(rec.matrix, rec.observation), levels)
        assert sphere_decode(rec) == oracle
    # a one-level alphabet has no second candidate, so its leaf is certified
    # even when R is rank-deficient, and the flag is kept
    assert certified_results(a, y, (5,)) == 30
    assert all(rec.result.fallback for rec in factor(DecodeProblem(a, y, (5,))))


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4), ("pair", 4), ("tdma", 6)])
def test_certified_session_results_equal_the_scalar_search(scheme, m):
    k_act = 2 if scheme == "pair" else 1
    build = build_pair_codeword if k_act == 2 else build_tdma_codeword
    count = 40 if (scheme, m) == ("pair", 4) else 150
    certified = 0
    for db in (10.0, 20.0, 30.0, 60.0):
        snr = SnrPoint(db)
        received, chans = [], []
        for t in range(count):
            rng = trial_rng(2121, t, int(db))
            points = [lift(random_fragment(rng, m), m) for _ in range(k_act)]
            h, w = draw_session(rng, 2, 1, k_act, 3)
            received.append(transmit(build(*points, m), h, w, snr))
            chans.append(h)
        for rec in factor_sessions(received, chans, snr, m):
            if rec.result is not None:
                certified += 1
                scalar = scalar_search(rec)
                assert rec.result == scalar and rec.result.metric == scalar.metric
    assert certified > 2 * count  # most sessions at 30 and 60 dB


def test_certificate_does_not_depend_on_the_stack():
    rng = np.random.default_rng(44)
    levels = pam_levels(4)
    a = rng.standard_normal((64, 9, 6))
    y = np.einsum("sij,sj->si", a, np.asarray(levels)[rng.integers(0, 4, (64, 6))])
    y += 0.7 * rng.standard_normal((64, 9))
    alone = [factor(DecodeProblem(ai, yi, levels))[0].result for ai, yi in zip(a, y)]
    for size in (2, 7, 64):
        stacked = [
            rec.result
            for lo in range(0, 64, size)
            for rec in factor(DecodeProblem(a[lo : lo + size], y[lo : lo + size], levels))
        ]
        assert stacked == alone
        assert [r and r.metric.hex() for r in stacked] == [r and r.metric.hex() for r in alone]
    assert 0 < sum(r is not None for r in alone) < 64


def test_second_candidate_tying_the_leaf_is_not_certified():
    # R = I: the top level takes +1 (increment 0.5625) with its second
    # candidate at 1.5625, and level 0 takes +1 (increment 1), so the leaf
    # metric 1.5625 equals the top level's second partial metric exactly.
    # The scalar search must descend under that candidate as well (5 nodes,
    # not 2n = 4); a certificate with >= in place of > would store 4.
    (rec,) = factor(DecodeProblem(np.eye(2), np.array([2.0, 0.25]), (-1, 1)))
    assert np.array_equal(rec.r, np.eye(2))
    assert rec.result is None
    res = sphere_decode(rec)
    assert res == DecodeResult((1, 1), 1.5625, 5, False)
    assert res == recursive_sphere_decode(*per_matrix_factor(np.eye(2), np.array([2.0, 0.25])), (-1, 1))
    # the same tie at the leaf level: both candidates of level 0 at increment 1
    (rec,) = factor(DecodeProblem(np.eye(2), np.array([0.0, 2.0]), (-1, 1)))
    assert rec.result is None
    assert sphere_decode(rec) == DecodeResult((-1, 1), 2.0, 4, False)


def babai_first_leaf(rec: FactoredProblem) -> tuple[int, ...]:
    """The scalar search's first leaf: the first candidate in (increment,
    level) order at every level, top level first."""
    r, z = np.asarray(rec.r).tolist(), np.asarray(rec.z).tolist()
    scaled = np.asarray(rec.scaled).tolist()
    n = len(z)
    x = [0.0] * n
    for level in range(n - 1, -1, -1):
        acc = 0.0
        for j in range(level + 1, n):
            acc += r[level][j] * x[j]
        rhs = z[level] - acc
        _, x[level] = min(((rhs - ra) * (rhs - ra), a) for ra, a in zip(scaled[level], rec.levels))
    return tuple(int(v) for v in x)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_first_leaf_breaks_ties_toward_the_smaller_level(size):
    # certified systems never tie at a first candidate, so the tie rule shows
    # only in the descent itself: on the exact-tie corpus it must reach the
    # scalar search's first leaf, smaller level first, certified or not
    levels = ALPHABETS[size]
    rng = np.random.default_rng([size, 57])
    n = 5
    a = np.triu(rng.integers(-2, 3, (200, n, n))).astype(float)
    a[:, np.arange(n), np.arange(n)] = rng.choice([-2.0, -1.0, 1.0, 2.0], (200, n))
    y = 0.5 * rng.integers(-4 * max(levels), 4 * max(levels) + 1, (200, n))
    y[:20] = 0.0  # the top level ties its two middle candidates
    records = factor(DecodeProblem(a, y, levels))
    r = np.stack([np.asarray(rec.r) for rec in records])
    z = np.stack([np.asarray(rec.z) for rec in records])
    scaled = np.stack([np.asarray(rec.scaled) for rec in records])
    certified, coords, _ = _first_leaf(r, z, scaled, levels)
    assert certified.tolist() == [rec.result is not None for rec in records]
    assert [tuple(c) for c in coords.tolist()] == [babai_first_leaf(rec) for rec in records]
    assert (coords[:20, n - 1] == levels[size // 2 - 1]).all()
    assert not certified[:20].any()
