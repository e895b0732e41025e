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
on the shares whose blocks all decoded cleanly.

A batch of sessions (a repair trial's plan, or a block of storage-free
session trials) runs in two passes.  The first transmits every session in
order (lift, codeword, channel draw, transmit), so the RNG is consumed
exactly as by one session after another.  The second decodes: the sessions
are grouped by their number of active helpers, each group's real systems are
built and QR-factored as one stack (decoder.factor_sessions), and then each
session, in order, gets its own exact search (decoder.decode_session).

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

from .channel import SnrPoint, draw_session, transmit, trial_rng, zero_noise
from .decoder import decode_session, factor_sessions
from .encoder import build_pair_codeword, build_tdma_codeword, dispersion_basis
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


@dataclass(frozen=True)
class SessionPlan:
    sessions: tuple[Session, ...]


def plan_sessions(helpers, blocks_per_helper: int, rng) -> SessionPlan:
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
    return SessionPlan(tuple(sessions))


def tdma_plan(helpers, blocks_per_helper: int) -> SessionPlan:
    """Orthogonal baseline: one singleton session per (helper, block)."""
    sessions = tuple(
        Session((int(h),), (block,))
        for block in range(blocks_per_helper)
        for h in helpers
    )
    return SessionPlan(sessions)


@dataclass(frozen=True)
class RepairTrialResult:
    snr_db: float
    sessions_total: int
    sessions_errored: int
    fragment_ok: bool
    repaired_share_ok: bool
    shares_failed: int


def _send(points, m, snr, rng, noiseless):
    """Transmit one session's lattice points over a fresh channel draw.

    Returns (points, received matrix, per-user channels).
    """
    if len(points) == 2:
        codeword = build_pair_codeword(points[0], points[1], m)
    else:
        codeword = build_tdma_codeword(points[0], m)
    chan, noise = draw_session(rng, n_r=2, n_t=1, k_active=len(points), T=3)
    if noiseless:
        noise = zero_noise(2, 3)
    return points, transmit(codeword, chan, noise, snr), chan.per_user


def _decode_sent(sent, m, snr, decoder_mode):
    """Decode sessions returned by _send, in order: one stacked factorization
    per session size, then each session's exact search."""
    problems = [None] * len(sent)
    for k_act in (1, 2):
        idx = [i for i, (points, _, _) in enumerate(sent) if len(points) == k_act]
        if idx:
            stack = factor_sessions(
                [sent[i][1] for i in idx], [sent[i][2] for i in idx],
                dispersion_basis(m, k_act), snr, m,
            )
            for i, problem in zip(idx, stack):
                problems[i] = problem
    return [decode_session(problem, decoder_mode) for problem in problems]


def _transmit_plan(plan, fragments, m, snr, decoder_mode, rng, noiseless):
    """Run a session plan over the channel; returns decoded bits and stats."""
    decoded: dict[int, list[str | None]] = {
        h: [None] * len(frags) for h, frags in fragments.items()
    }
    sent = [
        _send([lift(fragments[h][b]) for h, b in zip(sess.helpers, sess.blocks)],
              m, snr, rng, noiseless)
        for sess in plan.sessions
    ]
    decodes = _decode_sent(sent, m, snr, decoder_mode)
    sessions_errored = 0
    for sess, (points, _, _), dec in zip(plan.sessions, sent, decodes):
        errored = False
        for i, (h, b) in enumerate(zip(sess.helpers, sess.blocks)):
            decoded[h][b] = unlift(dec.points[i], m).bits
            if dec.points[i].element != points[i].element:
                errored = True
        sessions_errored += errored
    return decoded, sessions_errored


def _run_repair(cfg, m, snr, decoder_mode, seed, trial_index, scheme, noiseless):
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

    decoded, sessions_errored = _transmit_plan(
        plan, fragments, m, snr, decoder_mode, rng, noiseless
    )

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
        snr_db=snr.snr_db,
        sessions_total=len(plan.sessions),
        sessions_errored=sessions_errored,
        fragment_ok=shares_failed == 0,
        repaired_share_ok=repaired_ok,
        shares_failed=shares_failed,
    )


def run_repair_trial(
    cfg: StorageConfig,
    m: int,
    snr: SnrPoint,
    decoder_mode: str = "sphere",
    seed: int = 0,
    trial_index: int = 0,
    noiseless: bool = False,
) -> RepairTrialResult:
    """One full pair-scheduled repair: encode, erase, transmit, repair."""
    return _run_repair(cfg, m, snr, decoder_mode, seed, trial_index, "pair", noiseless)


def run_tdma_trial(
    cfg: StorageConfig,
    m: int,
    snr: SnrPoint,
    decoder_mode: str = "sphere",
    seed: int = 0,
    trial_index: int = 0,
    noiseless: bool = False,
) -> RepairTrialResult:
    """Like run_repair_trial but every session carries a single helper."""
    return _run_repair(cfg, m, snr, decoder_mode, seed, trial_index, "tdma", noiseless)


def _session_trials(m, snr, scheme, decoder_mode, seed, trial_indices, noiseless=False):
    """Storage-free session trials, decoded as one batch.

    Returns (any lattice point decoded wrong, visited enumeration nodes) per
    trial; each trial draws from its own substream, so the batch consumes
    the RNG exactly as the trials one by one.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    k_act = 2 if scheme == "pair" else 1
    sent = []
    for t in trial_indices:
        rng = trial_rng(seed, t)
        fragments = [random_fragment(rng, m) for _ in range(k_act)]
        sent.append(_send([lift(f) for f in fragments], m, snr, rng, noiseless))
    return [
        (any(d.element != p.element for d, p in zip(dec.points, points)), dec.result.visited_nodes)
        for (points, _, _), dec in zip(sent, _decode_sent(sent, m, snr, decoder_mode))
    ]


def run_session_trial(
    m: int,
    snr: SnrPoint,
    scheme: str = "pair",
    decoder_mode: str = "sphere",
    seed: int = 0,
    trial_index: int = 0,
    noiseless: bool = False,
) -> tuple[bool, int]:
    """One storage-free session with fresh random fragments.

    Returns (any lattice point decoded wrong, visited enumeration nodes);
    the error counts never depend on the decoder mode, both are exact ML.
    """
    return _session_trials(m, snr, scheme, decoder_mode, seed, [trial_index], noiseless)[0]


def _repair_range(task):
    """Worker: run trials [start, stop) of one SNR point, return counts."""
    cfg, m, snr_db, scheme, decoder_mode, seed, snr_idx, trials, start, stop, noiseless = task
    snr = SnrPoint(snr_db)
    counts = np.zeros(6, dtype=np.int64)  # sessions, errored, shares, failed, repairs, repair_fail
    for t in range(start, stop):
        res = _run_repair(
            cfg, m, snr, decoder_mode, seed, snr_idx * trials + t, scheme, noiseless
        )
        counts += (
            res.sessions_total,
            res.sessions_errored,
            cfg.d,
            res.shares_failed,
            1,
            0 if res.repaired_share_ok else 1,
        )
    return snr_idx, counts


def _session_range(task):
    """Worker: storage-free FER trials [start, stop) of one SNR point."""
    m, snr_db, scheme, decoder_mode, seed, snr_idx, trials, start, stop = task
    results = _session_trials(
        m, SnrPoint(snr_db), scheme, decoder_mode, seed,
        range(snr_idx * trials + start, snr_idx * trials + stop),
    )
    errors = sum(errored for errored, _ in results)
    visited = sum(nodes for _, nodes in results)
    return snr_idx, np.array([stop - start, errors, visited], dtype=np.int64)
