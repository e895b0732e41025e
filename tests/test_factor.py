"""The stacked first decoding stage against the per-session path it replaced.

factor_sessions builds, realifies, validates and QR-factors a stack of
sessions at once, and builds the search's tables for the whole stack.  The
per-session path kept here as the oracle (old_decode_session: build the
equivalent channel, realify and QR-factor with a 2-D np.linalg.qr for every
session on its own, then run the recursive search of
test_decoder.recursive_sphere_decode) must give the same systems, R, z and
offsets bit for bit, and the same DecodeResults (coordinates, metric bits,
node counts and rank flags) on repair and session trials.  How sessions are
cut into stacks changes no result.
"""

import math

import numpy as np
import pytest

import wstsim.protocol as protocol
from wstsim.channel import draw_cn, draw_session, trial_rng
from wstsim.decoder import (
    DecodeProblem,
    brute_force_ml,
    factor,
    factor_sessions,
    sphere_decode,
)
from wstsim.encoder import dispersion_basis, realify
from wstsim.cli import _session_range
from wstsim.lift import lift, pam_levels, random_fragment
from wstsim.protocol import GROUP_SIZES, run_repair_trials, run_session_trials
from wstsim.storage import StorageConfig

from conftest import amp_of, codeword_one, equivalent_channel_one, factor_one, transmit_one
from test_decoder import per_matrix_factor, recursive_sphere_decode

CFG = StorageConfig(6, 3, d=5, fragment_bits=24)


def old_system(received, per_user, basis, amplitude):
    """One session's real system, built on its own; amplitude is its
    sqrt(snr_linear), a float."""
    eqc = equivalent_channel_one(per_user, basis)
    return realify(
        amplitude * eqc,
        np.asarray(received, dtype=complex).reshape(-1, order="F"),
    )


def old_decode_session(received, h, amplitude, m):
    """The per-session decode: build, realify and 2-D QR, then the recursive search."""
    mat, obs = old_system(received, h, dispersion_basis(m), amplitude)
    return recursive_sphere_decode(*per_matrix_factor(mat, obs), pam_levels(m))


def assert_same_decode(new, old):
    assert new == old  # coordinates, metric, node count and rank flag
    assert new.metric == old.metric


def record_sessions(monkeypatch):
    """Record every session the protocol transmits and every decode it runs.

    The protocol transmits a stack of sessions at a time, each scaled by
    its own amplitude, and decodes them in the stack's order, so each
    session of a stacked call is recorded on its own, with its amplitude.
    """
    sent, decoded = [], []
    transmit, decode_session = protocol.transmit, protocol.decode_session

    def recording_transmit(codeword, h, w, amp):
        received = transmit(codeword, h, w, amp)
        sent.extend((received[n], h[n], float(amp[n])) for n in range(len(received)))
        return received

    def recording_decode(problem, mode="sphere"):
        decoded.append(decode_session(problem, mode))
        return decoded[-1]

    monkeypatch.setattr(protocol, "transmit", recording_transmit)
    monkeypatch.setattr(protocol, "decode_session", recording_decode)
    return sent, decoded


def test_stacked_factor_equals_per_matrix_qr_bitwise():
    rng = np.random.default_rng(2024)
    checked = 0
    for rep in range(12):
        for size in (1, 2, 3, 5, 8, 11, 14):
            for rows, cols in ((12, 12), (12, 6), (6, 6)):
                scale = 10.0 ** rng.uniform(-2, 3)
                a = scale * rng.standard_normal((size, rows, cols))
                y = scale * rng.standard_normal((size, rows))
                if rep % 3 == 0:
                    a[size // 2, :, rep % cols] = 0.0  # a zero column: R is rank-deficient
                for f, ai, yi in zip(factor(DecodeProblem(a, y, (-1, 1))), a, y):
                    r, z, offset = per_matrix_factor(ai, yi)
                    assert np.array_equal(f.r, r)
                    assert np.array_equal(f.z, z)
                    assert f.offset == offset
                    assert np.array_equal(f.matrix, ai) and np.array_equal(f.observation, yi)
                    checked += 1
    assert checked == 12 * 44 * 3


@pytest.mark.parametrize("k_act", [1, 2])
def test_factor_sessions_equals_per_session_systems_bitwise(k_act):
    rng = trial_rng(77, k_act)
    basis = dispersion_basis(4)
    for size in (1, 4, 9):
        amp = amp_of(17.0)
        chans = [draw_session(rng, 2, [k_act], 3)[0] for _ in range(size)]
        received = [draw_cn(rng, (2, 3)) for _ in range(size)]
        stack = factor_sessions(received, chans, np.full(size, amp), 4)
        assert len(stack) == size
        for f, y, h in zip(stack, received, chans):
            mat, obs = old_system(y, h, basis, amp)
            assert np.array_equal(f.matrix, mat) and np.array_equal(f.observation, obs)
            r, z, offset = per_matrix_factor(mat, obs)
            assert np.array_equal(f.r, r) and np.array_equal(f.z, z) and f.offset == offset
            assert f.levels == pam_levels(4)


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("pair", 4), ("tdma", 4)])
def test_repair_trials_decode_as_the_per_session_path(scheme, m, monkeypatch):
    sent, decoded = record_sessions(monkeypatch)
    for k in range(5):  # one range of 40 trials per SNR
        amp = amp_of(10.0 + 5.0 * k)
        start = len(sent)
        run_repair_trials(CFG, m, np.full(40, amp), scheme, "sphere", 606, range(40 * k, 40 * k + 40))
        assert {a for _, _, a in sent[start:]} == {amp}
    assert len(sent) == len(decoded) >= 200 * 6  # 6 sessions a trial at m = 4, 11 at m = 2
    for (received, h, amplitude), new in zip(sent, decoded):
        assert_same_decode(new, old_decode_session(received, h, amplitude, m))


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
def test_session_trials_decode_as_the_per_session_path(scheme, m, monkeypatch):
    sent, decoded = record_sessions(monkeypatch)
    for t in range(200):
        run_session_trials(m, np.array([amp_of(10.0 + 5.0 * (t % 5))]), scheme, "sphere", 909, [t])
    assert len(sent) == len(decoded) == 200
    for t, ((received, h, amplitude), new) in enumerate(zip(sent, decoded)):
        assert amplitude == amp_of(10.0 + 5.0 * (t % 5))
        assert_same_decode(new, old_decode_session(received, h, amplitude, m))


@pytest.mark.parametrize("k_act", [1, 2])
def test_factor_sessions_at_per_session_snr_equals_each_alone_bitwise(k_act):
    rng = trial_rng(78, k_act)
    amps = [amp_of(db) for db in (10.0, 30.0, 15.0, 10.0, 25.0, 20.0, -5.0, 60.0)]
    chans = [draw_session(rng, 2, [k_act], 3)[0] for _ in amps]
    received = [draw_cn(rng, (2, 3)) for _ in amps]
    stack = factor_sessions(received, chans, np.array(amps), 4)
    for f, y, h, amp in zip(stack, received, chans, amps, strict=True):
        (alone,) = factor_sessions([y], [h], np.array([amp]), 4)
        mat, obs = old_system(y, h, dispersion_basis(4), amp)
        assert np.array_equal(f.matrix, mat) and np.array_equal(f.observation, obs)
        assert np.array_equal(f.matrix, alone.matrix) and np.array_equal(f.observation, alone.observation)
        assert np.array_equal(f.r, alone.r) and np.array_equal(f.z, alone.z) and f.offset == alone.offset
        assert f.result == alone.result


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
def test_mixed_snr_repair_batch_decodes_as_the_per_session_path(scheme, m, monkeypatch):
    sent, decoded = record_sessions(monkeypatch)
    amps = np.array([amp_of(10.0 + 5.0 * (t % 5)) for t in range(100)])
    run_repair_trials(CFG, m, amps, scheme, "sphere", 607, range(100))
    per_trial = 12 if m == 2 else 10
    assert len(sent) == len(decoded) == 100 * per_trial
    # every session of a trial is sent at the trial's own amplitude
    assert {a for _, _, a in sent} == set(amps.tolist())
    for (received, h, a), new in zip(sent, decoded):
        assert_same_decode(new, old_decode_session(received, h, a, m))


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
def test_decodes_do_not_depend_on_the_stack(scheme, m):
    # rank flags and the R[l][l] * a tables are built per stack: the same
    # sessions factored alone and in stacks of 2, 110 and 1,024 must decode
    # to identical DecodeResults
    k_act = GROUP_SIZES[scheme]
    amp = amp_of(12.0)
    received, chans = [], []
    for t in range(1024):
        rng = trial_rng(4242, t)
        rows = [lift(random_fragment(rng, m), m) for _ in range(k_act)]
        h, w = draw_session(rng, 2, [k_act], 3)
        received.append(transmit_one(codeword_one(rows, m), h, w[0], amp))
        chans.append(h)
    decodes = {}
    for size in (1, 2, 110, 1024):
        decodes[size] = [
            sphere_decode(problem)
            for lo in range(0, 1024, size)
            for problem in factor_sessions(
                received[lo : lo + size], chans[lo : lo + size], np.full(len(chans[lo : lo + size]), amp), m
            )
        ]
    for size in (2, 110, 1024):
        assert decodes[size] == decodes[1]
        assert [d.metric.hex() for d in decodes[size]] == [d.metric.hex() for d in decodes[1]]


def test_session_block_equals_trials_one_by_one():
    amp = np.array([amp_of(12.0)])
    # task 0 of 2 over a 240-trial grid: the even indices 0..238 at 9 dB and
    # 240..478 at 12 dB, run as one batch of 240 mixed trials
    counts = _session_range(((2, "pair", "sphere"), 31, (9.0, 12.0), 240, 0, 2))
    single = [run_session_trials(2, amp, "pair", "sphere", 31, [t])[0] for t in range(240, 480, 2)]
    assert counts[1].tolist() == [120, sum(e for e, _ in single), sum(n for _, n in single)]
    low = run_session_trials(2, np.full(120, amp_of(9.0)), "pair", "sphere", 31, range(0, 240, 2))
    assert counts[0].tolist() == [120, sum(e for e, _ in low), sum(n for _, n in low)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_a_stack_raises(bad):
    mats, obs = np.stack([np.eye(3)] * 4), np.zeros((4, 3))
    mats[2, 1, 0] = bad
    with pytest.raises(ValueError):
        DecodeProblem(mats, obs, (-1, 1))
    obs[3, 1] = bad
    with pytest.raises(ValueError):
        DecodeProblem(np.stack([np.eye(3)] * 4), obs, (-1, 1))
    rng = trial_rng(8)
    chans = [draw_session(rng, 2, [1], 3)[0] for _ in range(3)]
    received = [draw_cn(rng, (2, 3)) for _ in range(3)]
    received[1][0, 2] = bad
    with pytest.raises(ValueError):
        factor_sessions(received, chans, np.full(3, amp_of(10.0)), 2)


def test_a_metric_that_can_overflow_is_refused():
    # finite entries whose residual metric overflows a double: sphere_decode
    # raised TypeError on this system and brute_force_ml returned coordinates None
    with pytest.raises(ValueError):
        DecodeProblem(np.array([[[1e308]]]), np.array([[3e307]]), (-3, -1, 1, 3))
    mats, obs = np.stack([np.eye(2)] * 3), np.zeros((3, 2))
    mats[1, 0, 0] = 1e200  # one system of the stack: (2e200)^2 overflows
    with pytest.raises(ValueError):
        DecodeProblem(mats, obs, (-1, 1))
    # a large system inside the bound decodes, and both decoders agree
    p = factor_one(np.array([[1e150, 0.0], [2e149, 5e149]]), np.array([3e149, -4e149]), (-3, -1, 1, 3))
    sphere, oracle = sphere_decode(p), brute_force_ml(p)
    assert sphere.coordinates == oracle.coordinates == (1, -1)
    assert math.isfinite(sphere.metric) and math.isclose(sphere.metric, oracle.metric, rel_tol=1e-12)


def test_stack_validation():
    with pytest.raises(ValueError):
        DecodeProblem(np.zeros((2, 3, 4)), np.zeros((2, 3)), (-1, 1))  # wide systems
    with pytest.raises(ValueError):
        DecodeProblem(np.zeros((2, 3, 3)), np.zeros((3, 3)), (-1, 1))  # stack sizes differ
    with pytest.raises(ValueError):
        DecodeProblem(np.zeros((2, 3, 3)), np.zeros((2, 3)), ())  # empty alphabet
    with pytest.raises(ValueError):
        DecodeProblem(np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 3)), (-1, 1))


def test_a_lone_system_is_refused():
    # a DecodeProblem is a stack; one system is a stack of one
    with pytest.raises(ValueError):
        DecodeProblem(np.eye(3), np.zeros(3), (-1, 1))
    (f,) = factor(DecodeProblem(np.eye(3)[None], np.zeros((1, 3)), (-1, 1)))
    assert f.matrix.shape == (3, 3) and f.observation.shape == (3,)


@pytest.mark.parametrize("decode", [sphere_decode, brute_force_ml])
def test_decoders_take_a_factored_system_only(decode):
    stack = DecodeProblem(np.stack([np.eye(2)] * 3), np.zeros((3, 2)), (-1, 1))
    for p in (stack, DecodeProblem(np.eye(2)[None], np.zeros((1, 2)), (-1, 1))):
        with pytest.raises(TypeError):
            decode(p)
    assert decode(factor(stack)[1]).coordinates == (-1, -1)
