import itertools
import math

import numpy as np
import pytest

from wstsim.channel import SnrPoint, draw_session, transmit, trial_rng, zero_noise
from wstsim.encoder import build_tdma_codeword, dispersion_basis, normalizer
from wstsim.lift import Fragment, lift
from wstsim.protocol import (
    RepairTrialResult,
    Session,
    bits_to_bytes,
    bytes_to_bits,
    plan_sessions,
    run_repair_trial,
    run_session_trial,
    run_tdma_trial,
    share_fragments,
    tdma_plan,
)
from wstsim.storage import StorageConfig

from conftest import decode_one

CFG = StorageConfig(6, 3, d=5, fragment_bits=24)


# ---------------------------------------------------------------------------
# bit plumbing
# ---------------------------------------------------------------------------


def test_bit_roundtrip():
    data = bytes(range(17))
    assert bits_to_bytes(bytes_to_bits(data)) == data
    assert bytes_to_bits(b"\x80\x01") == "1000000000000001"


def test_share_fragments_pads_last_block():
    frags = share_fragments(b"\xff\xff", 2)  # 16 bits -> 6+6+4, padded to 6
    assert [f.bits for f in frags] == ["111111", "111111", "111100"]
    frags = share_fragments(bytes(3), 2)  # 24 bits -> exactly 4 blocks
    assert len(frags) == 4


# ---------------------------------------------------------------------------
# session planning
# ---------------------------------------------------------------------------


def test_two_helpers_one_block():
    plan = plan_sessions([4, 9], 1, 0)
    assert len(plan.sessions) == 1
    assert sorted(plan.sessions[0].helpers) == [4, 9]
    assert plan.sessions[0].blocks == (0, 0)


def test_nine_helpers_yield_four_pairs_plus_singleton():
    plan = plan_sessions(list(range(9)), 1, 3)
    sizes = sorted(len(s.helpers) for s in plan.sessions)
    assert sizes == [1, 2, 2, 2, 2]


def test_plan_covers_every_helper_block_once():
    rng = trial_rng(10)
    for helpers, blocks in (([3, 1, 4, 1 + 4, 9], 4), (list(range(10)), 3), ([7], 2)):
        helpers = list(dict.fromkeys(helpers))
        plan = plan_sessions(helpers, blocks, rng)
        seen = [
            (h, b) for sess in plan.sessions for h, b in zip(sess.helpers, sess.blocks)
        ]
        assert sorted(seen) == sorted((h, b) for h in helpers for b in range(blocks))


def test_singletons_only_for_odd_counts():
    rng = trial_rng(11)
    even = plan_sessions(list(range(10)), 5, rng)
    assert all(len(s.helpers) == 2 for s in even.sessions)
    odd = plan_sessions(list(range(7)), 5, rng)
    per_round = 4  # 3 pairs + 1 singleton
    for i, sess in enumerate(odd.sessions):
        if len(sess.helpers) == 1:
            assert i % per_round == per_round - 1  # singleton closes its round


def test_pair_slot_membership_frequency():
    # every node occupies a given pair slot with probability 2/K
    K = 10
    plans = 10**5
    slot = 2  # third pair session of the round
    counts = dict.fromkeys(range(K), 0)
    for seed in range(plans):
        plan = plan_sessions(list(range(K)), 1, trial_rng(123, seed))
        for h in plan.sessions[slot].helpers:
            counts[h] += 1
    for h in range(K):
        assert abs(counts[h] / plans - 2 / K) < 0.01


def test_session_validation():
    with pytest.raises(ValueError):
        Session((1, 2, 3), (0, 0, 0))
    with pytest.raises(ValueError):
        Session((1, 2), (0,))
    with pytest.raises(ValueError):
        plan_sessions([], 1, 0)


def test_tdma_plan_is_exhaustive_singletons():
    plan = tdma_plan([2, 5, 8], 2)
    assert len(plan.sessions) == 6
    assert all(len(s.helpers) == 1 for s in plan.sessions)


# ---------------------------------------------------------------------------
# end-to-end trials
# ---------------------------------------------------------------------------


def test_noiseless_repair_always_succeeds():
    for t in range(25):
        res = run_repair_trial(CFG, 2, SnrPoint(0.0), seed=2, trial_index=t, noiseless=True)
        assert res.repaired_share_ok
        assert res.fragment_ok
        assert res.sessions_errored == 0


def test_noiseless_tdma_repair_always_succeeds():
    for t in range(10):
        res = run_tdma_trial(CFG, 4, SnrPoint(0.0), seed=2, trial_index=t, noiseless=True)
        assert res.repaired_share_ok
        assert res.sessions_total == 2 * 5  # 24 bits -> two 12-bit blocks per helper


def test_trial_determinism():
    a = run_repair_trial(CFG, 2, SnrPoint(12.0), seed=9, trial_index=4)
    b = run_repair_trial(CFG, 2, SnrPoint(12.0), seed=9, trial_index=4)
    assert a == b


def test_trial_counts_are_consistent():
    res = run_repair_trial(CFG, 2, SnrPoint(6.0), seed=31, trial_index=1)
    assert isinstance(res, RepairTrialResult)
    assert res.sessions_total == 12  # 4 blocks x (2 pairs + 1 singleton)
    assert 0 <= res.sessions_errored <= res.sessions_total
    assert res.fragment_ok == (res.shares_failed == 0)
    if res.repaired_share_ok:
        assert CFG.d - res.shares_failed >= CFG.k


def test_trial_requires_protocol_fields():
    with pytest.raises(ValueError):
        run_repair_trial(StorageConfig(6, 3), 2, SnrPoint(10.0))


def test_pipeline_identity_exhaustive_m2_single_session():
    # unlift(decode(transmit(build(lift(.))))) is the identity on fragments
    # when the noise is forced to zero; exhaustive over one pair session
    snr = SnrPoint(14.0)
    basis = dispersion_basis(2, 2)
    frag2 = Fragment("101101", 2)
    point2 = lift(frag2)
    rng = trial_rng(55)
    from wstsim.encoder import build_pair_codeword
    from wstsim.lift import unlift

    for bits in itertools.product("01", repeat=6):
        frag1 = Fragment("".join(bits), 2)
        point1 = lift(frag1)
        codeword = build_pair_codeword(point1, point2, 2)
        chan, _ = draw_session(rng, 2, 1, 2, 3)
        received = transmit(codeword, chan, zero_noise(2, 3), snr)
        dec = decode_one(received, chan, basis, snr, 2)
        assert unlift(dec.points[0], 2) == frag1
        assert unlift(dec.points[1], 2) == frag2


def test_tdma_session_matches_independent_mrc_oracle():
    # scalarize each channel use by maximal-ratio combining, then do ML over
    # the 64-point constellation: an independent decoding route that must
    # agree with the equivalent-channel sphere decoder
    m = 2
    points = [lift(Fragment("".join(b), m)) for b in itertools.product("01", repeat=3 * m)]
    rows = np.array([p.embedded_row for p in points])
    alpha = normalizer(m)
    snr = SnrPoint(8.0)
    basis = dispersion_basis(m, 1)
    for t in range(200):
        rng = trial_rng(31337, t)
        from wstsim.lift import random_fragment

        sent = lift(random_fragment(rng, m))
        codeword = build_tdma_codeword(sent, m)
        chan, noise = draw_session(rng, 2, 1, 1, 3)
        received = transmit(codeword, chan, noise, snr)
        dec = decode_one(received, chan, basis, snr, m)
        h = chan.per_user[0][:, 0]
        z = h.conj() @ received
        gain = math.sqrt(snr.snr_linear) * alpha * float(np.vdot(h, h).real)
        best = int(np.argmin((np.abs(z[None, :] - gain * rows) ** 2).sum(axis=1)))
        assert points[best].element == dec.points[0].element


def test_session_trial_modes_agree_on_errors():
    snr = SnrPoint(9.0)
    for t in range(60):
        err_a, _ = run_session_trial(2, snr, "pair", "sphere", 71, t)
        err_b, _ = run_session_trial(2, snr, "pair", "oracle", 71, t)
        assert err_a == err_b
