"""Pair-scheduled repair transmissions and the end-to-end repair pipeline.

A repair contacts d helpers.  Each helper's share is cut into blocks of 3m
bits (the last block zero-padded) and every block is one lattice point.  Per
block round the scheduler draws a seeded random partition of the helpers
into disjoint pairs - plus one leftover singleton when the helper count is
odd - so each (helper, block) pair is transmitted exactly once and every
helper is equally likely (probability 2/K) to occupy any given pair slot.
Pair sessions use the 2 x 3 codeword, singleton and TDMA sessions the 1 x 3
one; the newcomer (which has receiver CSI) ML-decodes each session
independently, unlifts the points, reassembles shares, and runs MDS repair
on the shares whose data bits all decoded right (a wrong bit in the last
block's zero padding does not spoil a share).

A session travels as plain values: the fragments of its one or two active
helpers and the numpy Generator its channel is drawn from.  run_sessions
takes a batch of sessions (a repair trial's plan, or a block of
storage-free session trials) in two passes.  The first transmits every
session in order (lift, codeword, channel draw, transmit), so the RNG is
consumed exactly as by one session after another.  The second decodes: the
sessions are grouped by their number of active helpers, each group's real
systems are built and QR-factored as one stack (decoder.factor_sessions),
and then each session, in order, gets its own exact search
(decoder.decode_session).  Each helper's six decoded PAM coordinates are
unlifted to a fragment, and a session errored when an unlifted fragment
differs from the one sent; lift is a bijection, so that is the same decision
as comparing the lattice points.

Airtime accounting for TDMA comparisons: a pair session carries two helpers'
blocks, so at equal bits per session and equal total airtime the TDMA
baseline must run the squared constellation (2m bits per QAM symbol when the
pair scheme uses m).  That is the finite-SNR counterpart of the asymptotic
rate normalization (TDMA transmits at gain K*r, an active pair member at
K*r/2); callers pick the TDMA m accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SnrPoint, draw_session, transmit, trial_rng
from .decoder import DecodeResult, decode_session, factor_sessions
from .encoder import build_pair_codeword, build_tdma_codeword
from .lift import Fragment, lift, random_fragment, unlift
from .storage import NodeContent, StorageConfig, mds_encode, repair_node

SCHEMES = ("pair", "tdma")


def bytes_to_bits(data: bytes) -> str:
    """MSB-first bit string of a byte string."""
    return "".join(format(b, "08b") for b in data)


def bits_to_bytes(bits: str) -> bytes:
    if len(bits) % 8:
        raise ValueError("bit string length must be a multiple of 8")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def share_fragments(data: bytes, m: int) -> list[Fragment]:
    """Cut a share into 3m-bit fragments, zero-padding the last one."""
    bits = bytes_to_bits(data)
    if not bits:
        raise ValueError("cannot fragment an empty share")
    step = 3 * m
    chunks = [bits[i : i + step] for i in range(0, len(bits), step)]
    chunks[-1] = chunks[-1].ljust(step, "0")
    return [Fragment(c, m) for c in chunks]


@dataclass(frozen=True)
class Session:
    """One transmission period: the active helpers and their block indices."""

    helpers: tuple[int, ...]
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.helpers) not in (1, 2) or len(self.blocks) != len(self.helpers):
            raise ValueError("a session activates one or two helpers")


def plan_sessions(helpers, blocks_per_helper: int, rng) -> tuple[Session, ...]:
    """Seeded random disjoint-pair rounds covering every (helper, block) once.

    rng is a numpy Generator or an integer master seed.  A singleton session
    appears only as the final leftover of a round when the helper count is
    odd.
    """
    helpers = [int(h) for h in helpers]
    if not helpers:
        raise ValueError("at least one helper is required")
    if blocks_per_helper < 1:
        raise ValueError("blocks_per_helper must be positive")
    if isinstance(rng, (int, np.integer)):
        rng = trial_rng(int(rng))
    sessions = []
    for block in range(blocks_per_helper):
        order = [helpers[i] for i in rng.permutation(len(helpers))]
        for i in range(0, len(order) - 1, 2):
            sessions.append(Session((order[i], order[i + 1]), (block, block)))
        if len(order) % 2:
            sessions.append(Session((order[-1],), (block,)))
    return tuple(sessions)


def tdma_plan(helpers, blocks_per_helper: int) -> tuple[Session, ...]:
    """Orthogonal baseline: one singleton session per (helper, block)."""
    return tuple(
        Session((int(h),), (block,))
        for block in range(blocks_per_helper)
        for h in helpers
    )


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
    received, channels = [], []
    for fragments, rng in sessions:
        points = [lift(f) for f in fragments]
        build = build_pair_codeword if len(points) == 2 else build_tdma_codeword
        codeword = build(*points, m)
        h, w = draw_session(rng, n_r=2, n_t=1, k_active=len(points), T=3)
        if noiseless:
            w = np.zeros_like(w)
        received.append(transmit(codeword, h, w, snr))
        channels.append(h)
    problems = [None] * len(sessions)
    for k_act in (1, 2):
        idx = [i for i, (fragments, _) in enumerate(sessions) if len(fragments) == k_act]
        if idx:
            stack = factor_sessions([received[i] for i in idx], [channels[i] for i in idx], snr, m)
            for i, problem in zip(idx, stack):
                problems[i] = problem
    out = []
    for (sent, _), problem in zip(sessions, problems):
        res = decode_session(problem, decoder_mode)
        got = [unlift(res.coordinates[j : j + 6], m) for j in range(0, 6 * len(sent), 6)]
        out.append((got, got != sent, res))
    return out


def run_repair_trial(
    cfg: StorageConfig,
    m: int,
    snr: SnrPoint,
    scheme: str = "pair",
    decoder_mode: str = "sphere",
    seed: int = 0,
    trial_index: int = 0,
    noiseless: bool = False,
) -> RepairTrialResult:
    """One full repair: encode, erase, transmit, repair.

    The helpers' blocks travel in pair-scheduled sessions, or, for scheme
    "tdma", one helper per session.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if cfg.d is None or cfg.fragment_bits is None:
        raise ValueError("repair trials need StorageConfig.d and fragment_bits")
    rng = trial_rng(seed, trial_index)
    file = rng.bytes(cfg.k * cfg.fragment_bits // 8)
    contents = mds_encode(file, cfg)
    lost = int(rng.integers(cfg.n))
    survivors = [i for i in range(cfg.n) if i != lost]
    helpers = sorted(int(h) for h in rng.choice(survivors, size=cfg.d, replace=False))

    fragments = {h: share_fragments(contents[h].fragment, m) for h in helpers}
    n_blocks = len(fragments[helpers[0]])
    if scheme == "pair":
        plan = plan_sessions(helpers, n_blocks, rng)
    else:
        plan = tdma_plan(helpers, n_blocks)

    batch = [([fragments[h][b] for h, b in zip(s.helpers, s.blocks)], rng) for s in plan]
    decoded: dict[int, list[str | None]] = {h: [None] * n_blocks for h in helpers}
    sessions_errored = 0
    for sess, (got, errored, _) in zip(plan, run_sessions(batch, m, snr, decoder_mode, noiseless)):
        sessions_errored += errored
        for h, b, frag in zip(sess.helpers, sess.blocks, got):
            decoded[h][b] = frag.bits

    usable: list[NodeContent] = []
    for h in helpers:
        bits = "".join(decoded[h])[: cfg.fragment_bits]
        share = bits_to_bytes(bits)
        if share == contents[h].fragment:
            usable.append(NodeContent(h, share, contents[h].pad_len))
    shares_failed = len(helpers) - len(usable)
    repaired_ok = False
    if len(usable) >= cfg.k:
        repaired = repair_node(lost, usable, cfg)
        repaired_ok = repaired.fragment == contents[lost].fragment
    return RepairTrialResult(
        sessions_total=len(plan),
        sessions_errored=sessions_errored,
        repaired_share_ok=repaired_ok,
        shares_failed=shares_failed,
    )


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
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    k_act = 2 if scheme == "pair" else 1
    batch = []
    for t in trial_indices:
        rng = trial_rng(seed, t)
        batch.append(([random_fragment(rng, m) for _ in range(k_act)], rng))
    return [(errored, res.visited_nodes) for _, errored, res in run_sessions(batch, m, snr, decoder_mode)]
