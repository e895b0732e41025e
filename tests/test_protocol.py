import itertools
import math

import numpy as np
import pytest

from wstsim.channel import SnrPoint, draw_session, transmit, trial_rng
from wstsim.encoder import build_pair_codeword, build_tdma_codeword, normalizer
from wstsim.lift import lift
import wstsim.protocol as protocol
from wstsim.protocol import (
    RepairTrialResult,
    plan_sessions,
    run_repair_trials,
    run_session_trials,
)
from wstsim.storage import StorageConfig, mds_encode, repair_node

from conftest import decode_one, join_fragments, share_fragments

CFG = StorageConfig(6, 3, d=5, fragment_bits=24)


# ---------------------------------------------------------------------------
# bit plumbing
# ---------------------------------------------------------------------------


def test_bit_roundtrip():
    # a share cut into fragments and joined again, for every fragment width
    # and whether or not 3m divides its bit count
    rng = np.random.default_rng(5)
    for n_bytes in (1, 2, 3, 7, 17, 64):
        data = rng.bytes(n_bytes)
        for m in (2, 4, 6, 8):
            frags = share_fragments(data, m)
            assert len(frags) == -(-8 * n_bytes // (3 * m))
            assert join_fragments(frags, m, n_bytes) == data
    assert share_fragments(b"\x80\x01", 4) == [0b100000000000, 0b000100000000]


def test_share_fragments_pads_last_block():
    frags = share_fragments(b"\xff\xff", 2)  # 16 bits -> 6+6+4, padded to 6
    assert frags == [0b111111, 0b111111, 0b111100]
    frags = share_fragments(bytes(3), 2)  # 24 bits -> exactly 4 blocks
    assert len(frags) == 4
    # the padding bits are dropped on the way back, whatever they hold
    assert join_fragments(share_fragments(b"\xff\xff", 2)[:2] + [0b111111], 2, 2) == b"\xff\xff"
    with pytest.raises(ValueError):
        join_fragments(frags[:3], 2, 3)  # too few fragments


# ---------------------------------------------------------------------------
# session planning
# ---------------------------------------------------------------------------


def test_two_helpers_one_block():
    plan = plan_sessions([4, 9], 1, trial_rng(0), 2)
    assert len(plan) == 1
    assert sorted(plan[0][0]) == [4, 9]
    assert plan[0][1] == 0


def test_nine_helpers_yield_four_pairs_plus_singleton():
    plan = plan_sessions(list(range(9)), 1, trial_rng(3), 2)
    sizes = sorted(len(group) for group, _ in plan)
    assert sizes == [1, 2, 2, 2, 2]


def test_plan_covers_every_helper_block_once():
    rng = trial_rng(10)
    for helpers, blocks in (([3, 1, 4, 1 + 4, 9], 4), (list(range(10)), 3), ([7], 2)):
        helpers = list(dict.fromkeys(helpers))
        for g in (1, 2, 3, len(helpers)):
            plan = plan_sessions(helpers, blocks, rng, g)
            seen = [(h, block) for group, block in plan for h in group]
            assert sorted(seen) == sorted((h, b) for h in helpers for b in range(blocks))


def test_singletons_only_for_odd_counts():
    rng = trial_rng(11)
    even = plan_sessions(list(range(10)), 5, rng, 2)
    assert all(len(group) == 2 for group, _ in even)
    odd = plan_sessions(list(range(7)), 5, rng, 2)
    per_round = 4  # 3 pairs + 1 singleton
    for i, (group, _) in enumerate(odd):
        if len(group) == 1:
            assert i % per_round == per_round - 1  # singleton closes its round


def test_pair_slot_membership_frequency():
    # every node occupies a given pair slot with probability 2/K
    K = 10
    plans = 10**5
    slot = 2  # third pair session of the round
    counts = dict.fromkeys(range(K), 0)
    for seed in range(plans):
        plan = plan_sessions(list(range(K)), 1, trial_rng(123, seed), 2)
        for h in plan[slot][0]:
            counts[h] += 1
    for h in range(K):
        assert abs(counts[h] / plans - 2 / K) < 0.01


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_sessions([], 1, trial_rng(0), 2)
    with pytest.raises(ValueError):
        plan_sessions([1, 2], 0, trial_rng(0), 2)
    for g in (0, -1):
        with pytest.raises(ValueError):
            plan_sessions([1, 2], 1, trial_rng(0), g)


def test_tdma_plan_is_exhaustive_singletons():
    plan = plan_sessions([2, 5, 8], 2, trial_rng(0), 1)
    assert len(plan) == 6
    assert all(len(group) == 1 for group, _ in plan)


def test_group_size_one_keeps_the_helper_order_and_draws_nothing():
    # the TDMA plan: block by block, each round in the helpers' given order
    rng = trial_rng(7)
    plan = plan_sessions([2, 5, 8], 3, rng, 1)
    assert plan == [((h,), b) for b in range(3) for h in (2, 5, 8)]
    assert rng.random(4).tolist() == trial_rng(7).random(4).tolist()


def test_group_size_two_draws_one_permutation_per_round():
    # the pair plan: each round's permutation, cut into pairs and a leftover
    helpers, blocks = [3, 4, 6, 9, 11], 3
    rng, twin = trial_rng(8), trial_rng(8)
    plan = plan_sessions(helpers, blocks, rng, 2)
    expected = []
    for b in range(blocks):
        order = [helpers[i] for i in twin.permutation(len(helpers))]
        expected += [(tuple(order[0:2]), b), (tuple(order[2:4]), b), ((order[4],), b)]
    assert plan == expected
    assert rng.random(4).tolist() == twin.random(4).tolist()


# ---------------------------------------------------------------------------
# end-to-end trials
# ---------------------------------------------------------------------------


def test_noiseless_repair_always_succeeds():
    for res in run_repair_trials(CFG, 2, SnrPoint(0.0), "pair", "sphere", 2, range(25), noiseless=True):
        assert res.repaired_share_ok
        assert res.shares_failed == 0
        assert res.sessions_errored == 0


def test_noiseless_tdma_repair_always_succeeds():
    for res in run_repair_trials(CFG, 4, SnrPoint(0.0), "tdma", "sphere", 2, range(10), noiseless=True):
        assert res.repaired_share_ok
        assert res.sessions_total == 2 * 5  # 24 bits -> two 12-bit blocks per helper


def test_trial_determinism():
    a = run_repair_trials(CFG, 2, SnrPoint(12.0), "pair", "sphere", 9, [4])
    b = run_repair_trials(CFG, 2, SnrPoint(12.0), "pair", "sphere", 9, [4])
    assert a == b


def test_trial_counts_are_consistent():
    (res,) = run_repair_trials(CFG, 2, SnrPoint(6.0), "pair", "sphere", 31, [1])
    assert isinstance(res, RepairTrialResult)
    assert res.sessions_total == 12  # 4 blocks x (2 pairs + 1 singleton)
    assert 0 <= res.sessions_errored <= res.sessions_total
    assert 0 <= res.shares_failed <= CFG.d
    if res.repaired_share_ok:
        assert CFG.d - res.shares_failed >= CFG.k


def test_trial_requires_protocol_fields():
    with pytest.raises(ValueError):
        run_repair_trials(StorageConfig(6, 3), 2, SnrPoint(10.0), "pair", "sphere", 0, [0])
    with pytest.raises(ValueError):
        run_repair_trials(CFG, 2, SnrPoint(10.0), "fdma", "sphere", 0, [0])


def test_pipeline_identity_exhaustive_m2_single_session():
    # unlift(decode(transmit(build(lift(.))))) is the identity on fragments
    # when the noise is forced to zero; exhaustive over one pair session
    snr = SnrPoint(14.0)
    frag2 = 0b101101
    point2 = lift(frag2, 2)
    rng = trial_rng(55)
    from wstsim.encoder import build_pair_codeword
    from wstsim.lift import unlift

    for v in range(64):
        point1 = lift(v, 2)
        codeword = build_pair_codeword(point1, point2, 2)
        h, _ = draw_session(rng, 2, 1, 2, 3)
        received = transmit(codeword, h, np.zeros((2, 3), dtype=complex), snr)
        dec = decode_one(received, h, snr, 2)
        assert unlift(dec.coordinates[:6], 2) == v
        assert unlift(dec.coordinates[6:], 2) == frag2


def test_tdma_session_matches_independent_mrc_oracle():
    # scalarize each channel use by maximal-ratio combining, then do ML over
    # the 64-point constellation: an independent decoding route that must
    # agree with the equivalent-channel sphere decoder
    m = 2
    points = [lift(v, m) for v in range(1 << (3 * m))]
    rows = np.array([p.embedded_row for p in points])
    alpha = normalizer(m)
    snr = SnrPoint(8.0)
    for t in range(200):
        rng = trial_rng(31337, t)
        from wstsim.lift import random_fragment

        sent = lift(random_fragment(rng, m), m)
        codeword = build_tdma_codeword(sent, m)
        h, w = draw_session(rng, 2, 1, 1, 3)
        received = transmit(codeword, h, w, snr)
        dec = decode_one(received, h, snr, m)
        h0 = h[0][:, 0]
        z = h0.conj() @ received
        gain = math.sqrt(snr.snr_linear) * alpha * float(np.vdot(h0, h0).real)
        best = int(np.argmin((np.abs(z[None, :] - gain * rows) ** 2).sum(axis=1)))
        assert points[best].coordinates == dec.coordinates


def test_session_trial_modes_agree_on_errors():
    snr = SnrPoint(9.0)
    sphere = run_session_trials(2, snr, "pair", "sphere", 71, range(60))
    oracle = run_session_trials(2, snr, "pair", "ml", 71, range(60))
    assert [e for e, _ in sphere] == [e for e, _ in oracle]


# ---------------------------------------------------------------------------
# trial ranges as one batch
# ---------------------------------------------------------------------------


PADDED = StorageConfig(6, 3, d=5, fragment_bits=16)  # 16-bit shares end in a padded block


@pytest.mark.parametrize("cfg", [CFG, PADDED], ids=["24-bit", "16-bit"])
@pytest.mark.parametrize("scheme,m", [("pair", 2), ("pair", 4), ("tdma", 4)])
@pytest.mark.parametrize("noiseless", [False, True])
def test_trial_range_equals_trials_one_by_one(cfg, scheme, m, noiseless, monkeypatch):
    snr = SnrPoint(9.0)
    single = [run_repair_trials(cfg, m, snr, scheme, "sphere", 13, [t], noiseless)[0] for t in range(40, 60)]
    batch = run_repair_trials(cfg, m, snr, scheme, "sphere", 13, range(40, 60), noiseless)
    assert batch == single
    # a cap of 25 sessions flushes the batch every few trials and splits stacks
    monkeypatch.setattr(protocol, "SESSION_BATCH", 25)
    assert run_repair_trials(cfg, m, snr, scheme, "sphere", 13, range(40, 60), noiseless) == single
    if not noiseless:
        assert any(r.sessions_errored for r in batch)  # the comparison saw errors


def test_no_stack_exceeds_the_session_batch(monkeypatch):
    sizes = []
    factor_sessions = protocol.factor_sessions

    def recording(received, channels, snr, m):
        sizes.append(len(received))
        return factor_sessions(received, channels, snr, m)

    monkeypatch.setattr(protocol, "factor_sessions", recording)
    assert protocol.SESSION_BATCH == 256
    cfg = StorageConfig(6, 3, d=5, fragment_bits=4096)
    # 342 blocks a share at m = 4: 1,710 singleton sessions a trial, each
    # trial a batch of its own and its stack split at the cap
    results = run_repair_trials(cfg, 4, SnrPoint(30.0), "tdma", "sphere", 3, range(2), noiseless=True)
    assert [r.sessions_total for r in results] == [1710] * 2
    assert sizes == ([256] * 6 + [174]) * 2
    sizes.clear()
    # 683 blocks at m = 2: 683 singleton and 1,366 pair sessions a trial
    results = run_repair_trials(cfg, 2, SnrPoint(30.0), "pair", "sphere", 3, range(2), noiseless=True)
    assert all(r.repaired_share_ok and not r.shares_failed for r in results)
    assert sizes == ([256, 256, 171] + [256] * 5 + [86]) * 2
    sizes.clear()
    # 12 sessions a trial (4 singletons, 8 pairs) at 24-bit shares: batches
    # of 21 trials, 252 sessions, then the last 8 trials
    results = run_repair_trials(CFG, 2, SnrPoint(30.0), "pair", "sphere", 3, range(50), noiseless=True)
    assert len(results) == 50
    assert sizes == [84, 168, 84, 168, 32, 64]


# ---------------------------------------------------------------------------
# the stacked send stage against a session-by-session loop
# ---------------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _send_one_by_one(sessions, m, snrs, noiseless):
    """Each session's own draw, codeword and transmit at its own SNR point,
    in session order."""
    out = []
    for (fragments, rng), snr in zip(sessions, snrs, strict=True):
        points = [lift(f, m) for f in fragments]
        h, w = draw_session(rng, 2, 1, len(points), 3)
        if noiseless:
            w = np.zeros_like(w)
        codeword = build_pair_codeword(*points, m) if len(points) == 2 else build_tdma_codeword(*points, m)
        out.append((transmit(codeword, h, w, snr), h))
    return out


def _check_stacked_send(scheme, m, noiseless, trial_snrs, monkeypatch):
    """The stacked send of 30 batch-sent trials, trial t at trial_snrs[t],
    against each session's own draw, codeword and transmit."""
    stacks = []
    stacked_transmit = protocol.transmit

    def recording(codeword, h, w, snr):
        received = stacked_transmit(codeword, h, w, snr)
        stacks.append((received, h))
        return received

    def batch():
        return protocol._send_repairs(CFG, m, protocol.GROUP_SIZES[scheme], 21, range(30))[2]

    monkeypatch.setattr(protocol, "transmit", recording)
    stacked, single = batch(), batch()
    per_trial = len(single) // 30
    snrs = [snr for snr in trial_snrs for _ in range(per_trial)]
    protocol.run_sessions(stacked, m, snrs, noiseless=noiseless)
    looped = _send_one_by_one(single, m, snrs, noiseless)
    # one stack per session size, singletons first, each in session order
    sizes = [len(fragments) for fragments, _ in single]
    order = [i for k in (1, 2) for i, size in enumerate(sizes) if size == k]
    received = [y for ys, _ in stacks for y in ys]
    channels = [h for _, hs in stacks for h in hs]
    assert len(stacks) == len(set(sizes)) and len(received) == len(single) == 30 * (12 if m == 2 else 10)
    for n, i in enumerate(order):
        assert np.array_equal(_bits(received[n]), _bits(looped[i][0]))
        assert np.array_equal(_bits(channels[n]), _bits(looped[i][1]))
    # every trial's Generator is left where the per-session loop leaves it
    after = [rng.standard_normal() for rng in {id(rng): rng for _, rng in stacked}.values()]
    assert after == [rng.standard_normal() for rng in {id(rng): rng for _, rng in single}.values()]
    assert len(after) == 30


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
@pytest.mark.parametrize("noiseless", [False, True])
def test_stacked_send_equals_the_per_session_loop(scheme, m, noiseless, monkeypatch):
    _check_stacked_send(scheme, m, noiseless, [SnrPoint(14.0)] * 30, monkeypatch)


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
def test_stacked_send_at_mixed_snr_equals_the_per_session_loop(scheme, m, monkeypatch):
    trial_snrs = [SnrPoint(db) for db in (10.0, 15.0, 20.0, 25.0, 30.0, -7.5)] * 5
    _check_stacked_send(scheme, m, False, trial_snrs, monkeypatch)


def test_run_sessions_refuses_other_session_sizes():
    rng = trial_rng(3)
    frags = [1] * 3
    with pytest.raises(ValueError):
        protocol.run_sessions([(frags, rng)], 2, SnrPoint(10.0))
    assert protocol.run_sessions([], 2, SnrPoint(10.0)) == []


# ---------------------------------------------------------------------------
# the batch stages of repair trials against one trial at a time
# ---------------------------------------------------------------------------


def old_repair_trial(cfg, m, snr, scheme, seed, t, noiseless=False, calls=None):
    """One repair trial on its own: its own encode, its shares cut by
    share_fragments, its own sessions, every share reassembled, and its own
    repair_node call, whose (lost node, chosen helper ids) it appends to
    calls when given."""
    rng = trial_rng(seed, t)
    contents = mds_encode(rng.bytes(cfg.k * cfg.fragment_bits // 8), cfg)
    lost = int(rng.integers(cfg.n))
    survivors = [i for i in range(cfg.n) if i != lost]
    helpers = sorted(rng.choice(survivors, size=cfg.d, replace=False).tolist())
    fragments = {h: share_fragments(contents[h].fragment, m) for h in helpers}
    plan = plan_sessions(helpers, len(fragments[helpers[0]]), rng, protocol.GROUP_SIZES[scheme])
    sessions = [([fragments[h][block] for h in group], rng) for group, block in plan]
    outcomes = protocol.run_sessions(sessions, m, snr, "sphere", noiseless)
    decoded = {h: [] for h in helpers}
    for (group, _), (got, _, _) in zip(plan, outcomes):
        for h, frag in zip(group, got):
            decoded[h].append(frag)
    usable = [
        contents[h] for h in helpers
        if join_fragments(decoded[h], m, len(contents[h].fragment)) == contents[h].fragment
    ]
    ok = len(usable) >= cfg.k and repair_node(lost, usable, cfg).fragment == contents[lost].fragment
    if calls is not None and len(usable) >= cfg.k:
        calls.append((lost, tuple(s.node_id for s in usable[: cfg.k])))
    return RepairTrialResult(len(plan), sum(e for _, e, _ in outcomes), ok, len(helpers) - len(usable))


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_stacked_cutter_equals_share_fragments(m):
    rng = np.random.default_rng(m)
    for n_bytes in (1, 2, 3, 7, 17, 64):
        shares = np.frombuffer(rng.bytes(4 * 3 * n_bytes), dtype=np.uint8).reshape(4, 3, n_bytes).copy()
        shares[0, 0] = 0xFF  # padding below all-ones bits must still be zeros
        values = protocol._fragment_values(shares, m)
        assert values.shape == (4, 3, -(-8 * n_bytes // (3 * m)))
        for node, trial in itertools.product(range(4), range(3)):
            expected = share_fragments(shares[node, trial].tobytes(), m)
            assert values[node, trial].tolist() == expected


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("fragment_bits", [8, 16, 24, 4096])
def test_batch_encode_equals_each_trials_own_encode(trials, k, fragment_bits):
    cfg = StorageConfig(k + 3, k, d=k + 1, fragment_bits=fragment_bits)
    shares, sent, _ = protocol._send_repairs(cfg, 2, 2, 44, range(100, 100 + trials))
    assert shares.shape == (cfg.n, trials, fragment_bits // 8)
    for t, (lost, helpers, _) in enumerate(sent):
        rng = trial_rng(44, 100 + t)
        own = mds_encode(rng.bytes(k * fragment_bits // 8), cfg)
        assert [shares[i, t].tobytes() for i in range(cfg.n)] == [c.fragment for c in own]
        assert lost == int(rng.integers(cfg.n)) and lost not in helpers and len(helpers) == cfg.d


REPAIR_CONFIGS = [
    CFG,
    PADDED,
    StorageConfig(9, 4, d=6, fragment_bits=24),  # d < n - 1: the helpers are a draw
    StorageConfig(9, 4, d=6, fragment_bits=16),
]


@pytest.mark.parametrize("cfg", REPAIR_CONFIGS, ids=["6-3-5-24", "6-3-5-16", "9-4-6-24", "9-4-6-16"])
@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
def test_batch_repair_equals_trials_one_at_a_time(cfg, scheme, m, monkeypatch):
    # from 10 to 22 dB many trials lose shares, some too many to repair,
    # so the trials split into many repair groups
    calls = []
    grouped = protocol.repair_node

    def recording(lost, helpers, cfg):
        out = grouped(lost, helpers, cfg)
        calls.append((lost, helpers, out))
        return out

    monkeypatch.setattr(protocol, "repair_node", recording)
    snrs = [SnrPoint(db) for db in (10.0, 14.0, 18.0, 22.0)] * 15
    batch = run_repair_trials(cfg, m, snrs, scheme, "sphere", 77, range(60))
    monkeypatch.setattr(protocol, "repair_node", grouped)
    own_calls = []
    assert batch == [old_repair_trial(cfg, m, snr, scheme, 77, t, calls=own_calls) for t, snr in enumerate(snrs)]
    assert any(r.shares_failed and r.repaired_share_ok for r in batch)
    assert any(not r.repaired_share_ok for r in batch)
    assert len(calls) < sum(r.repaired_share_ok for r in batch)
    # each grouped call's output is, trial by trial, repair_node on that
    # trial's own shares, and its trials are those whose own call has the
    # same lost node and chosen helpers
    size = cfg.fragment_bits // 8
    covered = []
    for lost, helpers, out in calls:
        assert len(helpers) == cfg.k and sorted(h.node_id for h in helpers) == [h.node_id for h in helpers]
        count = len(out.fragment) // size
        for t in range(count):
            part = slice(t * size, (t + 1) * size)
            own = [type(h)(h.node_id, h.fragment[part]) for h in helpers]
            assert grouped(lost, own, cfg).fragment == out.fragment[part]
        covered += [(lost, tuple(h.node_id for h in helpers))] * count
    assert sorted(covered) == sorted(own_calls)
    assert len(covered) == sum(r.repaired_share_ok for r in batch)


def test_a_wrong_pad_bit_errs_the_session_but_not_the_share(monkeypatch):
    # PADDED shares at m=2 are 3 blocks of 6 bits, the last block's low 2
    # bits padding.  TDMA sessions each unlift one helper block, in plan
    # order: call i unlifts block i // 5 of the (i % 5)-th helper.  Call 10
    # flips the lowest bit of a last block, padding only; call 1 flips the
    # lowest bit of a first block, a data bit.
    real = protocol.unlift
    calls = itertools.count()

    def flipping(coordinates, m):
        return real(coordinates, m) ^ (next(calls) in (1, 10))

    chosen = []
    real_repair = protocol.repair_node

    def recording(lost, helpers, cfg):
        chosen.append([h.node_id for h in helpers])
        return real_repair(lost, helpers, cfg)

    monkeypatch.setattr(protocol, "unlift", flipping)
    monkeypatch.setattr(protocol, "repair_node", recording)
    (result,) = run_repair_trials(PADDED, 2, SnrPoint(30.0), "tdma", "sphere", 8, [0], noiseless=True)
    assert next(calls) == result.sessions_total == 15
    assert result.sessions_errored == 2
    assert result.shares_failed == 1
    assert result.repaired_share_ok
    # the repair leaves out exactly the helper whose data bit went wrong
    _, helpers, _ = protocol._send_repairs(PADDED, 2, 1, 8, [0])[1][0]
    assert chosen == [[h for h in helpers if h != helpers[1]][:3]]
    calls = itertools.count()
    assert result == old_repair_trial(PADDED, 2, SnrPoint(30.0), "tdma", 8, 0, noiseless=True)


@pytest.mark.parametrize("scheme,m", [("pair", 2), ("tdma", 4)])
def test_a_mixed_snr_batch_equals_per_point_runs(scheme, m):
    grid = [6.0, 10.0, 14.0, 18.0, 30.0]
    db = [grid[(t * 7) % 5] for t in range(60)]
    mixed = run_repair_trials(CFG, m, [SnrPoint(v) for v in db], scheme, "sphere", 19, range(60))
    per_point = {
        v: iter(run_repair_trials(CFG, m, SnrPoint(v), scheme, "sphere", 19, [t for t in range(60) if db[t] == v]))
        for v in grid
    }
    assert mixed == [next(per_point[v]) for v in db]
    assert any(r.sessions_errored for r in mixed)
    sessions = run_session_trials(m, [SnrPoint(v) for v in db], scheme, "sphere", 19, range(60))
    per_point = {
        v: iter(run_session_trials(m, SnrPoint(v), scheme, "sphere", 19, [t for t in range(60) if db[t] == v]))
        for v in grid
    }
    assert sessions == [next(per_point[v]) for v in db]
    with pytest.raises(ValueError):
        run_repair_trials(CFG, m, [SnrPoint(10.0)] * 3, scheme, "sphere", 19, range(4))
