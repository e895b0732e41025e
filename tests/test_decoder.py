import numpy as np
import pytest

from wstsim.channel import SnrPoint, draw_session, transmit, trial_rng, zero_noise
from wstsim.decoder import (
    DecodeProblem,
    brute_force_ml,
    decode_session,
    sphere_decode,
)
from wstsim.encoder import build_pair_codeword, build_tdma_codeword, dispersion_basis
from wstsim.lift import lift, pam_levels, random_fragment
from wstsim.protocol import run_session_trial


def random_problem(rng, rows=8, cols=6, levels=(-1, 1), noise=0.0):
    a = rng.standard_normal((rows, cols))
    x = np.array([levels[i] for i in rng.integers(0, len(levels), size=cols)])
    y = a @ x + noise * rng.standard_normal(rows)
    return DecodeProblem(a, y, levels), x


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
    basis = dispersion_basis(2, 2)
    for t in range(300):
        rng = trial_rng(2024, t)
        p1, p2 = lift(random_fragment(rng, 2)), lift(random_fragment(rng, 2))
        X = build_pair_codeword(p1, p2, 2)
        chan, noise = draw_session(rng, 2, 1, 2, 3)
        Y = transmit(X, chan, noise, snr)
        a = decode_session(Y, chan, basis, snr, 2, mode="sphere")
        b = decode_session(Y, chan, basis, snr, 2, mode="oracle")
        assert a.points == b.points
        assert abs(a.result.metric - b.result.metric) < 1e-9


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
    a = sphere_decode(p)
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


def test_rank_deficient_falls_back_to_oracle():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # second column zero
    y = np.array([0.9, 0.0, 0.0])
    p = DecodeProblem(a, y, (-1, 1))
    res = sphere_decode(p)
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
        res = sphere_decode(p)
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
        points = [lift(f) for f in frags]
        if k_act == 2:
            X = build_pair_codeword(points[0], points[1], 2)
        else:
            X = build_tdma_codeword(points[0], 2)
        chan, _ = draw_session(rng, 2, 1, k_act, 3)
        Y = transmit(X, chan, zero_noise(2, 3), snr)
        dec = decode_session(Y, chan, dispersion_basis(2, k_act), snr, 2)
        assert [p.element for p in dec.points] == [p.element for p in points]
        assert dec.result.metric < 1e-12


def test_decode_session_mode_validation():
    rng = trial_rng(1)
    chan, _ = draw_session(rng, 2, 1, 1, 3)
    with pytest.raises(ValueError):
        decode_session(np.zeros((2, 3)), chan, dispersion_basis(2, 1), SnrPoint(0.0), 2, "zf")


def test_visited_nodes_shrink_with_snr():
    means = []
    for db in (5.0, 15.0, 25.0):
        total = 0
        for t in range(1000):
            _, visited = run_session_trial(2, SnrPoint(db), "pair", "sphere", 77, t)
            total += visited
        means.append(total / 1000)
    assert means[0] > means[1] > means[2]


def test_session_error_rate_30db_oracle_regression():
    # frozen Monte Carlo baseline: zero session errors in 1e4 oracle trials
    # at 30 dB (rate << 1e-2); determinism makes the count reproducible
    errors = 0
    for t in range(10**4):
        errored, _ = run_session_trial(2, SnrPoint(30.0), "pair", "oracle", 1234, t)
        errors += errored
    assert errors == 0
    assert errors / 10**4 < 1e-2
