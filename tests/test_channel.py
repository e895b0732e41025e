import math

import numpy as np
import pytest

from conftest import amp_of, transmit_one
from wstsim.channel import draw_cn, draw_session, snr_linear, transmit, trial_rng
from wstsim.encoder import build_pair_codeword, normalizer
from wstsim.lift import lift


def test_snr_point():
    assert snr_linear(0.0) == 1.0
    assert abs(snr_linear(10.0) - 10.0) < 1e-12
    assert abs(snr_linear(-3.0) - 10 ** (-0.3)) < 1e-12


# ---------------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------------


def test_trial_rng_deterministic_and_disjoint():
    a = draw_cn(trial_rng(123, 5), (4,))
    b = draw_cn(trial_rng(123, 5), (4,))
    c = draw_cn(trial_rng(123, 6), (4,))
    d = draw_cn(trial_rng(124, 5), (4,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_trial_rng_path_words_independent():
    assert not np.array_equal(
        draw_cn(trial_rng(1, 2, 3), (4,)), draw_cn(trial_rng(1, 3, 2), (4,))
    )


def test_trial_rng_validation():
    with pytest.raises(ValueError):
        trial_rng(-1)
    with pytest.raises(ValueError):
        trial_rng(0, 1, 2, 3, 4)


def test_draw_session_deterministic_across_replays():
    for trial in (0, 17):
        h1, w1 = draw_session(trial_rng(999, trial), 2, [2], 3)
        h2, w2 = draw_session(trial_rng(999, trial), 2, [2], 3)
        assert np.array_equal(h1, h2)
        assert np.array_equal(w1, w2)


def test_draw_cn_equals_complex_division_bitwise():
    # draw_cn scales the doubles by 1/sqrt(2); the samples must equal, bit for
    # bit, those of dividing the complex view by sqrt(2)
    for seed in (41, 2**63 + 5):
        shape = (2**19, 2)  # 2^20 samples, 2^21 normals
        z = draw_cn(trial_rng(seed, 3), shape)
        normals = np.empty(2 * math.prod(shape))
        trial_rng(seed, 3).standard_normal(out=normals)
        ref = normals.view(complex).reshape(shape)
        ref /= math.sqrt(2.0)
        assert np.array_equal(z.view(np.uint64), ref.view(np.uint64))


def test_draw_cn_into_buffer_equals_fresh_draw():
    buf = np.full(64, np.nan)
    a = draw_cn(trial_rng(3, 1), (5, 2, 3), out=buf)
    assert np.array_equal(a, draw_cn(trial_rng(3, 1), (5, 2, 3)))
    assert np.shares_memory(a, buf)
    b = draw_cn(trial_rng(3, 2), (4,), out=buf)  # a smaller draw into the same buffer
    assert np.array_equal(b, draw_cn(trial_rng(3, 2), (4,)))


def test_draw_session_draws_channel_then_noise():
    for k in (1, 2):
        rng, ref = trial_rng(77, k), trial_rng(77, k)
        h, w = draw_session(rng, 2, [k], 3)
        assert np.array_equal(h, draw_cn(ref, (k, 2)))
        assert np.array_equal(w, draw_cn(ref, (1, 2, 3)))
        assert rng.standard_normal() == ref.standard_normal()


# ---------------------------------------------------------------------------
# fading statistics
# ---------------------------------------------------------------------------


def test_entry_variance_is_unit():
    h = draw_cn(trial_rng(7), (10**6,))
    assert 0.99 < float(np.mean(np.abs(h) ** 2)) < 1.01


def test_re_im_uncorrelated():
    h = draw_cn(trial_rng(8), (10**6,))
    prod = h.real * h.imag
    mean = float(np.mean(prod))
    stderr = float(np.std(prod)) / np.sqrt(h.size)
    assert abs(mean) < 3 * stderr


# ---------------------------------------------------------------------------
# transmit
# ---------------------------------------------------------------------------


ZERO_NOISE = np.zeros((2, 3), dtype=complex)


def _pair_codeword(v1, v2):
    return build_pair_codeword([lift(v1, 2)], [lift(v2, 2)], 2)[0]


def test_transmit_identity_channel_zero_noise():
    X = _pair_codeword(0b010011, 0b111000)
    h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    snr = snr_linear(20.0)
    Y = transmit_one(X, h, ZERO_NOISE, amp_of(20.0))
    assert np.allclose(Y, np.sqrt(snr) * X)


def test_transmit_zero_codeword_returns_noise():
    X = _pair_codeword(0, 0)
    zero = np.zeros((2, 2), dtype=complex)
    noise = np.arange(6, dtype=complex).reshape(2, 3)
    Y = transmit_one(X, zero, noise, amp_of(10.0))
    assert np.array_equal(Y, noise)


def test_transmit_superposition():
    rng = trial_rng(77)
    h, _ = draw_session(rng, 2, [2], 3)
    amp = amp_of(13.0)
    X1 = _pair_codeword(0b010011, 0b111000)
    X2 = _pair_codeword(0b001100, 0b100101)
    y1 = transmit_one(X1, h, ZERO_NOISE, amp)
    y2 = transmit_one(X2, h, ZERO_NOISE, amp)
    y12 = transmit_one(X1 + X2, h, ZERO_NOISE, amp)
    assert np.allclose(y12, y1 + y2, atol=1e-12)


def test_transmit_shape_mismatch():
    X = _pair_codeword(0b010011, 0b111000)
    h = np.zeros((1, 2), dtype=complex)
    with pytest.raises(ValueError):
        transmit_one(X, h, ZERO_NOISE, 1.0)
    with pytest.raises(ValueError):
        transmit_one(X, np.zeros((2, 2), dtype=complex), np.zeros((2, 2)), 1.0)


def test_received_snr_calibration():
    # with the unit-energy normalizer, E||sqrt(snr) H X||^2 / E||W||^2 is
    # snr * K_active (here 2 * snr) to within Monte Carlo error
    rng = trial_rng(1234)
    trials = 10**5
    rows = np.array([lift(v, 2) for v in range(64)]) * normalizer(2)
    h = draw_cn(rng, (trials, 2, 2))  # receive antenna x user
    idx = rng.integers(0, 64, size=(trials, 2))
    x = rows[idx]  # (trials, user, T)
    snr = snr_linear(7.0)
    signal = np.sqrt(snr) * np.einsum("tru,tuc->trc", h, x)
    w = draw_cn(rng, (trials, 2, 3))
    ratio = float(np.mean(np.abs(signal) ** 2).sum() / np.mean(np.abs(w) ** 2).sum())
    expected = snr * 2
    assert abs(ratio - expected) / expected < 0.03


# ---------------------------------------------------------------------------
# stacks: one draw for a run of sessions, one product for many
# ---------------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n_r,T", [(2, 3), (3, 4)])
def test_draw_session_sequence_equals_the_draws_in_turn(n_r, T):
    for counts in ([2], [1], [2, 2, 1] * 4, [1] * 10, [1, 3, 2]):
        rng, ref = trial_rng(55, len(counts)), trial_rng(55, len(counts))
        h, w = draw_session(rng, n_r, counts, T)
        singles = [draw_session(ref, n_r, [k], T) for k in counts]
        assert h.shape == (sum(counts), n_r) and w.shape == (len(counts), n_r, T)
        assert np.array_equal(_bits(h), _bits(np.concatenate([hk for hk, _ in singles])))
        assert np.array_equal(_bits(w), _bits(np.concatenate([wk for _, wk in singles])))
        assert rng.standard_normal() == ref.standard_normal()  # the Generators agree after


def test_draw_session_sequence_validation():
    for counts in ([], [2, 0, 1], [-1]):
        with pytest.raises(ValueError):
            draw_session(trial_rng(1), 2, counts, 3)
    with pytest.raises(ValueError):
        draw_session(trial_rng(1), 0, [1, 2], 3)
    with pytest.raises(TypeError):  # one count is a sequence of one
        draw_session(trial_rng(1), 2, 2, 3)


def _lone_product(X, h, w, amp):
    """One session's received matrix as a 2-D product scaled by a Python
    float: the oracle for every session of a stack."""
    return amp * (np.ascontiguousarray(h.T) @ X) + w


@pytest.mark.parametrize("k,n_r", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_stacked_transmit_equals_per_session_bitwise(k, n_r):
    rng = trial_rng(606, k, n_r)
    S = 400
    X = draw_cn(rng, (S, k, 3))
    h = draw_cn(rng, (S, k, n_r))
    w = draw_cn(rng, (S, n_r, 3))
    w[::3] = 0.0  # zero noise, where a product's sign of zero would show
    amp = amp_of(11.0)
    Y = transmit(X, h, w, np.full(S, amp))
    assert Y.shape == (S, n_r, 3)
    for n in range(S):
        assert np.array_equal(_bits(Y[n]), _bits(transmit_one(X[n], h[n], w[n], amp)))
        assert np.array_equal(_bits(Y[n]), _bits(_lone_product(X[n], h[n], w[n], amp)))
    with pytest.raises(ValueError):
        transmit(X, h[:, :1] if k == 2 else np.concatenate([h, h], axis=1), w, np.full(S, amp))
    with pytest.raises(ValueError):
        transmit(X, h, w[..., :2], np.full(S, amp))


@pytest.mark.parametrize("k,n_r", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_stacked_transmit_at_per_session_snr_equals_per_session_bitwise(k, n_r):
    # each session scaled by its own amplitude: the received matrix of its
    # own call at its own amplitude, bit for bit
    rng = trial_rng(607, k, n_r)
    S = 400
    X = draw_cn(rng, (S, k, 3))
    h = draw_cn(rng, (S, k, n_r))
    w = draw_cn(rng, (S, n_r, 3))
    w[::3] = 0.0
    amps = [amp_of(db) for db in rng.choice([-20.0, 0.0, 10.0, 12.5, 25.0, 30.0, 80.0], size=S)]
    Y = transmit(X, h, w, np.array(amps))
    assert Y.shape == (S, n_r, 3)
    for n, amp in enumerate(amps):
        assert np.array_equal(_bits(Y[n]), _bits(transmit_one(X[n], h[n], w[n], amp)))
        assert np.array_equal(_bits(Y[n]), _bits(_lone_product(X[n], h[n], w[n], amp)))
    # one amplitude for every session is the same multiply as a Python float
    h_all = np.ascontiguousarray(np.swapaxes(h, 1, 2))
    assert np.array_equal(_bits(transmit(X, h, w, np.full(S, amps[0]))), _bits(amps[0] * (h_all @ X) + w))
