"""Group-scheduled repair transmissions and the end-to-end repair pipeline.

A repair contacts d helpers.  Each helper's share is cut into blocks of 3m
bits (the last block zero-padded) and every block is one lattice point.  A
scheme is a group size g (GROUP_SIZES: TDMA 1, the pair scheme 2): per block
round the planner cuts the helpers into groups of g, so each (helper, block)
pair is transmitted exactly once.  For the pair scheme each round's order is
a seeded random permutation, so the groups are disjoint pairs - plus one
leftover singleton when the helper count is odd - and every helper is
equally likely (probability 2/K) to occupy any given pair slot.  Pair
sessions use the 2 x 3 codeword, singleton and TDMA sessions the 1 x 3
one; the newcomer (which has receiver CSI) ML-decodes each session
independently, unlifts the points, reassembles shares, and runs MDS repair
on the shares whose data bits all decoded right (a wrong bit in the last
block's zero padding does not spoil a share).

A session travels as plain values: the fragments of its one or two active
helpers and the numpy Generator its channel is drawn from.  run_sessions
takes a batch of sessions (the plans of a range of repair trials, or a
block of storage-free session trials) in stages, each run on stacks.  The
draw comes first: each run of consecutive sessions that share a Generator
(one repair trial's) gets its fading and noise from one draw_session call,
in session order, so the RNG is consumed exactly as by one session after
another.  Then, for each number of active helpers in turn, every helper's
fragment is lifted, the sessions' codewords are built as one stack and sent
through one stacked transmit, and their real systems are built and
QR-factored as stacks of at most SESSION_BATCH systems
(decoder.factor_sessions); each session then gets its own exact search
(decoder.decode_session), taken in the stack's order.  Each helper's six
decoded PAM coordinates are unlifted to a fragment, and a session errored
when an unlifted fragment differs from the one sent; lift is a bijection,
so that is the same decision as comparing the lattice points.  A stacked
draw, product or factorization equals the per-session one bit for bit, so
neither the stages nor how trials are split into batches change a result.

Shares are cut into fragments, and reassembled from them, as integers: a
share's bytes are one big-endian integer, zero-padded at the end to whole
fragments.

Airtime accounting for TDMA comparisons: a pair session carries two helpers'
blocks, so at equal bits per session and equal total airtime the TDMA
baseline must run the squared constellation (2m bits per QAM symbol when the
pair scheme uses m).  That is the finite-SNR counterpart of the asymptotic
rate normalization (TDMA transmits at gain K*r, an active pair member at
K*r/2); callers pick the TDMA m accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .channel import SnrPoint, draw_session, transmit, trial_rng
from .decoder import DecodeResult, decode_session, factor_sessions
from .encoder import build_pair_codeword, build_tdma_codeword
from .lift import Fragment, lift, random_fragment, unlift
from .storage import NodeContent, StorageConfig, mds_encode, repair_node

#: session group size of each scheme
GROUP_SIZES = {"tdma": 1, "pair": 2}


#: most sessions run_repair_trials holds before sending them, and the
#: largest stack run_sessions factors at once: a pair session's arrays take
#: ~7 KB while its stack is factored, so a stack peaks near 8 MB
SESSION_BATCH = 1024


def share_fragments(data: bytes, m: int) -> list[Fragment]:
    """Cut a share into 3m-bit fragments, zero-padding the last one."""
    if not data:
        raise ValueError("cannot fragment an empty share")
    step = 3 * m
    count = -(-8 * len(data) // step)
    value = int.from_bytes(data, "big") << (count * step - 8 * len(data))
    mask = (1 << step) - 1
    return [Fragment((value >> (step * i)) & mask, m) for i in range(count - 1, -1, -1)]


def join_fragments(fragments, n_bytes: int) -> bytes:
    """The n_bytes share that share_fragments cut into these fragments,
    whatever bits their zero padding holds."""
    value, width = 0, 0
    for f in fragments:
        value = (value << 3 * f.m) | f.value
        width += 3 * f.m
    pad = width - 8 * n_bytes
    if not 0 <= pad < 3 * fragments[-1].m:
        raise ValueError(f"{len(fragments)} fragments do not hold a {n_bytes}-byte share")
    return (value >> pad).to_bytes(n_bytes, "big")


def plan_sessions(helpers, blocks_per_helper: int, rng, g: int) -> list[tuple[tuple[int, ...], int]]:
    """Sessions covering every (helper, block) once, as (helpers, block).

    Each block round cuts the helper order into groups of g; the last group
    of a round is smaller when g does not divide the helper count.  For
    g > 1 every round's order is a fresh permutation drawn from the numpy
    Generator rng; g = 1 keeps the given order and draws nothing.
    """
    helpers = [int(h) for h in helpers]
    if not helpers:
        raise ValueError("at least one helper is required")
    if blocks_per_helper < 1:
        raise ValueError("blocks_per_helper must be positive")
    if g < 1:
        raise ValueError("the group size g must be positive")
    sessions = []
    for block in range(blocks_per_helper):
        order = [helpers[i] for i in rng.permutation(len(helpers)).tolist()] if g > 1 else helpers
        sessions += [(tuple(order[i : i + g]), block) for i in range(0, len(order), g)]
    return sessions


@dataclass(frozen=True)
class RepairTrialResult:
    sessions_total: int
    sessions_errored: int
    repaired_share_ok: bool
    shares_failed: int


def run_sessions(
    sessions, m: int, snr: SnrPoint, decoder_mode: str = "sphere", noiseless: bool = False
) -> list[tuple[list[Fragment], bool, DecodeResult]]:
    """Transmit and decode a batch of sessions.

    sessions is a sequence of (fragments, rng): the 3m-bit fragments of the
    one or two active helpers, and the Generator that draws the session's
    channel and noise (noiseless forces the noise to 0 after the draw).
    Returns, per session, the decoded fragments, whether any of them differs
    from the one sent, and the decoder's result.
    """
    if not sessions:
        return []
    sizes = [len(fragments) for fragments, _ in sessions]
    if not set(sizes) <= {1, 2}:
        raise ValueError("a session has one or two active helpers")
    fading, noise = [], []
    for rng, run in groupby(sessions, key=itemgetter(1)):  # a Generator equals only itself
        h, w = draw_session(rng, 2, 1, [len(fragments) for fragments, _ in run], 3)
        fading.append(h)
        noise.append(w)
    fading, noise = np.concatenate(fading), np.concatenate(noise)
    if noiseless:
        noise = np.zeros_like(noise)
    first_user = np.cumsum(sizes) - sizes
    out = [None] * len(sessions)
    for k, build in ((1, build_tdma_codeword), (2, build_pair_codeword)):
        idx = [i for i, size in enumerate(sizes) if size == k]
        if not idx:
            continue
        points = [[lift(sessions[i][0][j]) for i in idx] for j in range(k)]
        h = fading[first_user[idx][:, None] + np.arange(k)]
        received = transmit(build(*points, m), h, noise[idx], snr)
        for lo in range(0, len(idx), SESSION_BATCH):
            part = slice(lo, lo + SESSION_BATCH)
            for i, problem in zip(idx[part], factor_sessions(received[part], h[part], snr, m)):
                res = decode_session(problem, decoder_mode)
                c = res.coordinates
                got = [unlift(c, m)] if k == 1 else [unlift(c[:6], m), unlift(c[6:], m)]
                out[i] = (got, got != sessions[i][0], res)
    return out


def _send_repair(cfg: StorageConfig, m: int, scheme: str, seed: int, trial: int):
    """A repair trial's sending side: encode, erase, pick helpers, plan.

    Returns (shares, lost node, helpers, session plan), and the plan's
    sessions as run_sessions takes them, drawing from the trial's own
    Generator.
    """
    rng = trial_rng(seed, trial)
    file = rng.bytes(cfg.k * cfg.fragment_bits // 8)
    contents = mds_encode(file, cfg)
    lost = int(rng.integers(cfg.n))
    survivors = [i for i in range(cfg.n) if i != lost]
    helpers = sorted(rng.choice(survivors, size=cfg.d, replace=False).tolist())

    fragments = {h: share_fragments(contents[h].fragment, m) for h in helpers}
    plan = plan_sessions(helpers, len(fragments[helpers[0]]), rng, GROUP_SIZES[scheme])
    sessions = [([fragments[h][block] for h in group], rng) for group, block in plan]
    return (contents, lost, helpers, plan), sessions


def _finish_repair(cfg: StorageConfig, sent, outcomes) -> RepairTrialResult:
    """Reassemble a trial's decoded shares and repair from the right ones.

    A session that did not err decoded every fragment it carried right, so
    only the shares of helpers in an errored session are reassembled (the
    plan lists each helper's blocks in order) and compared with the sent
    ones.
    """
    contents, lost, helpers, plan = sent
    decoded: dict[int, list[Fragment]] = {}
    sessions_errored = 0
    for (group, _), (_, errored, _) in zip(plan, outcomes):
        if errored:
            sessions_errored += 1
            decoded.update((h, []) for h in group)
    if decoded:
        for (group, _), (got, _, _) in zip(plan, outcomes):
            for h, frag in zip(group, got):
                if h in decoded:
                    decoded[h].append(frag)

    usable: list[NodeContent] = []
    for h in helpers:
        share = contents[h].fragment
        if h not in decoded or join_fragments(decoded[h], len(share)) == share:
            usable.append(contents[h])
    repaired_ok = False
    if len(usable) >= cfg.k:
        repaired_ok = repair_node(lost, usable, cfg).fragment == contents[lost].fragment
    return RepairTrialResult(
        sessions_total=len(plan),
        sessions_errored=sessions_errored,
        repaired_share_ok=repaired_ok,
        shares_failed=len(helpers) - len(usable),
    )


def run_repair_trials(
    cfg: StorageConfig,
    m: int,
    snr: SnrPoint,
    scheme: str,
    decoder_mode: str,
    seed: int,
    trial_indices,
    noiseless: bool = False,
) -> list[RepairTrialResult]:
    """Full repairs (encode, erase, transmit, repair), one per trial index.

    The helpers' blocks travel in sessions of the scheme's group size.  Each
    trial's shares, plan and sessions are drawn from its own substream; the
    sessions of consecutive trials are decoded as one batch once they number
    SESSION_BATCH or more, and each trial is then repaired from its decoded
    shares.  The results equal those of the trials run one at a time.
    """
    if scheme not in GROUP_SIZES:
        raise ValueError(f"scheme must be one of {tuple(GROUP_SIZES)}, got {scheme!r}")
    if cfg.d is None or cfg.fragment_bits is None:
        raise ValueError("repair trials need StorageConfig.d and fragment_bits")
    results: list[RepairTrialResult] = []
    pending, batch = [], []

    def flush() -> None:
        outcomes = run_sessions(batch, m, snr, decoder_mode, noiseless)
        start = 0
        for sent in pending:
            stop = start + len(sent[3])  # one outcome per planned session
            results.append(_finish_repair(cfg, sent, outcomes[start:stop]))
            start = stop
        pending.clear()
        batch.clear()

    for t in trial_indices:
        sent, sessions = _send_repair(cfg, m, scheme, seed, t)
        pending.append(sent)
        batch.extend(sessions)
        if len(batch) >= SESSION_BATCH:
            flush()
    if pending:
        flush()
    return results


def run_session_trials(
    m: int,
    snr: SnrPoint,
    scheme: str,
    decoder_mode: str,
    seed: int,
    trial_indices,
) -> list[tuple[bool, int]]:
    """Storage-free session trials, each one session with fresh random
    fragments, decoded as one batch.

    Returns (any fragment decoded wrong, visited enumeration nodes) per
    trial; the error counts never depend on the decoder mode, both are
    exact ML.  Each trial draws from its own substream, so the batch
    consumes the RNG exactly as the trials one by one.
    """
    if scheme not in GROUP_SIZES:
        raise ValueError(f"scheme must be one of {tuple(GROUP_SIZES)}, got {scheme!r}")
    batch = []
    for t in trial_indices:
        rng = trial_rng(seed, t)
        batch.append(([random_fragment(rng, m) for _ in range(GROUP_SIZES[scheme])], rng))
    return [(errored, res.visited_nodes) for _, errored, res in run_sessions(batch, m, snr, decoder_mode)]
