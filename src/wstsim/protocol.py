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
independently, unlifts the points, and runs MDS repair on the shares whose
data bits all decoded right (a wrong bit in the last block's zero padding
does not spoil a share).

A session travels as plain values: the fragments of its one or two active
helpers, each the int below 2^(3m) its bits spell, and the numpy Generator
its channel is drawn from.  run_sessions takes a batch of sessions (the
plans of a batch of repair trials, or a block of storage-free session
trials) with an SNR point per session, so a batch may mix the sessions of
several points, and runs it in stages, each on stacks.  The draw comes
first: each run of consecutive sessions that share a Generator (one repair
trial's) gets its fading and noise from one draw_session call, in session
order, so the RNG is consumed exactly as by one session after another.
Then, for each number of active helpers in turn, every helper's fragment is
lifted, the sessions' codewords are built as one stack and sent through one
stacked transmit, each session scaled by its own amplitude sqrt(snr), and
their real systems are built and QR-factored as stacks of at most
SESSION_BATCH systems (decoder.factor_sessions); each session then gets its
own exact search (decoder.decode_session), taken in the stack's order.  Each
helper's six decoded PAM coordinates are unlifted to a fragment, and a
session errored when an unlifted fragment differs from the one sent; lift is
a bijection, so that is the same decision as comparing the lattice points.
A stacked draw, product or factorization equals the per-session one bit for
bit, and a per-session amplitude is the same multiply as a scalar one, so
neither the stages nor how trials and SNR points are mixed in batches change
a result.

Repair trials run in batches of at most SESSION_BATCH sessions (a trial
with more is a batch of its own), and the storage side runs once per batch:

- send: each trial draws from its own substream, in this order, its file
  bytes, its lost node, its d helpers and its plan's permutations (pair
  plans only), as one trial run alone does;
- encode: one mds_encode call encodes the virtual file whose chunk j holds
  every trial's chunk j in turn.  A repair file is k * fragment_bits / 8
  bytes, so none is padded, and share i of the virtual file holds every
  trial's share i in turn (the interleaving property in storage.py);
- cut: every share of the batch is cut into 3m-bit fragments at once, its
  bytes read as one big-endian bit string, zero-padded at the end to whole
  fragments;
- repair: a trial repairs from the shares that came through right when
  there are at least k of them.  A share came through wrong when an errored
  session decoded one of its fragments differently in a data bit.  Every
  bit of a block is a data bit except the last block's low pad =
  blocks*3m - 8*share_bytes bits, its zero padding.  The trials that would
  hand repair_node the same lost node and the same k chosen helpers share
  one repair_node call, on their shares laid end to end.

Airtime accounting for TDMA comparisons: a pair session carries two helpers'
blocks, so at equal bits per session and equal total airtime the TDMA
baseline must run the squared constellation (2m bits per QAM symbol when the
pair scheme uses m).  That is the finite-SNR counterpart of the asymptotic
rate normalization (TDMA transmits at gain K*r, an active pair member at
K*r/2); callers pick the TDMA m accordingly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .channel import SnrPoint, amplitudes, draw_session, transmit, trial_rng
from .decoder import DecodeResult, decode_session, factor_sessions
from .encoder import build_pair_codeword, build_tdma_codeword
from .lift import lift, random_fragment, unlift
from .storage import NodeContent, StorageConfig, mds_encode, repair_node

#: session group size of each scheme
GROUP_SIZES = {"tdma": 1, "pair": 2}


#: most sessions in a batch of repair trials, and the largest stack
#: run_sessions factors at once.  A pair session's arrays take ~7 KB while
#: its stack is factored, so a stack peaks near 2 MB; the batch's storage
#: side adds its shares, their bits and fragments, a few hundred bytes a
#: trial at the default 24-bit shares.  A larger batch saves little
#: per-stack time and raises the peak RSS of a run.
SESSION_BATCH = 256


def _fragment_values(shares: np.ndarray, m: int) -> np.ndarray:
    """The 3m-bit fragments of uint8 shares (..., L), as int64 values
    (..., blocks): each share's bytes read as one big-endian bit string,
    zero-padded at the end to whole fragments."""
    step = 3 * m
    bits = np.unpackbits(shares, axis=-1)
    blocks = -(-bits.shape[-1] // step)
    pad = np.zeros((*bits.shape[:-1], blocks * step - bits.shape[-1]), dtype=np.uint8)
    words = np.concatenate([bits, pad], axis=-1).reshape(*bits.shape[:-1], blocks, step)
    return words @ (1 << np.arange(step - 1, -1, -1, dtype=np.int64))


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
    sessions,
    m: int,
    snr: SnrPoint | Sequence[SnrPoint],
    decoder_mode: str = "sphere",
    noiseless: bool = False,
) -> list[tuple[list[int], bool, DecodeResult]]:
    """Transmit and decode a batch of sessions.

    sessions is a sequence of (fragments, rng): the 3m-bit fragments (ints)
    of the one or two active helpers, and the Generator that draws the
    session's channel and noise (noiseless forces the noise to 0 after the
    draw).
    snr is one SnrPoint for every session, or a sequence of one per
    session.  Returns, per session, the decoded fragments, whether any of
    them differs from the one sent, and the decoder's result.
    """
    if not sessions:
        return []
    sizes = [len(fragments) for fragments, _ in sessions]
    if not set(sizes) <= {1, 2}:
        raise ValueError("a session has one or two active helpers")
    scale = amplitudes(snr, len(sessions))
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
        points = [[lift(sessions[i][0][j], m) for i in idx] for j in range(k)]
        h = fading[first_user[idx][:, None] + np.arange(k)]
        amp = scale[idx]
        received = transmit(build(*points, m), h, noise[idx], amp)
        for lo in range(0, len(idx), SESSION_BATCH):
            part = slice(lo, lo + SESSION_BATCH)
            for i, problem in zip(idx[part], factor_sessions(received[part], h[part], amp[part], m)):
                res = decode_session(problem, decoder_mode)
                c = res.coordinates
                got = [unlift(c, m)] if k == 1 else [unlift(c[:6], m), unlift(c[6:], m)]
                out[i] = (got, got != sessions[i][0], res)
    return out


def _send_repairs(cfg: StorageConfig, m: int, g: int, seed: int, trials):
    """The sending side of a batch of repair trials: draw, encode, cut, plan.

    Each trial draws from its own Generator its file, lost node, helpers
    and plan.  Returns the batch's shares as a uint8 array (n, trials,
    share bytes), each trial's (lost node, helpers, plan), and the plans'
    sessions as run_sessions takes them.
    """
    share_bytes = cfg.fragment_bits // 8
    blocks = -(-cfg.fragment_bits // (3 * m))
    files, sent, rngs = [], [], []
    for t in trials:
        rng = trial_rng(seed, t)
        files.append(rng.bytes(cfg.k * share_bytes))
        lost = int(rng.integers(cfg.n))
        survivors = [i for i in range(cfg.n) if i != lost]
        helpers = sorted(rng.choice(survivors, size=cfg.d, replace=False).tolist())
        sent.append((lost, helpers, plan_sessions(helpers, blocks, rng, g)))
        rngs.append(rng)
    # chunk j of the virtual file holds every trial's chunk j in turn
    chunks = np.frombuffer(b"".join(files), dtype=np.uint8).reshape(len(files), cfg.k, share_bytes)
    contents = mds_encode(chunks.transpose(1, 0, 2).tobytes(), cfg)
    shares = np.frombuffer(b"".join(c.fragment for c in contents), dtype=np.uint8)
    shares = shares.reshape(cfg.n, len(files), share_bytes)
    values = _fragment_values(shares, m).transpose(1, 0, 2).tolist()  # trial, node, block
    sessions = []
    for (_, _, plan), rng, fragments in zip(sent, rngs, values):
        sessions += [([fragments[h][block] for h in group], rng) for group, block in plan]
    return shares, sent, sessions


def _finish_repairs(
    cfg: StorageConfig, m: int, shares: np.ndarray, sent, sessions, outcomes
) -> list[RepairTrialResult]:
    """Repair each trial of a batch from its shares that came through right.

    A share came through wrong when an errored session decoded one of its
    fragments differently in a data bit; the last block's pad low bits are
    its zero padding and do not count.  A trial with at least k right
    shares repairs from the k with the smallest ids, as repair_node chooses
    them; trials with the same lost node and chosen ids share one
    repair_node call.
    """
    share_bits = 8 * shares.shape[2]
    last = -(-share_bits // (3 * m)) - 1
    pad = (last + 1) * 3 * m - share_bits
    counts, groups = [], {}
    start = 0
    for t, (lost, helpers, plan) in enumerate(sent):
        stop = start + len(plan)
        wrong = set()
        sessions_errored = 0
        for (group, block), (fragments, _), (got, errored, _) in zip(
            plan, sessions[start:stop], outcomes[start:stop]
        ):
            if errored:
                sessions_errored += 1
                shift = pad if block == last else 0
                wrong.update(h for h, a, b in zip(group, got, fragments) if (a ^ b) >> shift)
        start = stop
        usable = [h for h in helpers if h not in wrong]
        if len(usable) >= cfg.k:
            groups.setdefault((lost, *usable[: cfg.k]), []).append(t)
        counts.append([len(plan), sessions_errored, False, len(wrong)])
    for (lost, *chosen), trials in groups.items():
        helpers = [NodeContent(h, shares[h, trials].tobytes()) for h in chosen]
        repaired = np.frombuffer(repair_node(lost, helpers, cfg).fragment, dtype=np.uint8)
        right = (repaired.reshape(len(trials), -1) == shares[lost, trials]).all(axis=1)
        for t, ok in zip(trials, right.tolist()):
            counts[t][2] = ok
    return [RepairTrialResult(*c) for c in counts]


def run_repair_trials(
    cfg: StorageConfig,
    m: int,
    snr: SnrPoint | Sequence[SnrPoint],
    scheme: str,
    decoder_mode: str,
    seed: int,
    trial_indices,
    noiseless: bool = False,
) -> list[RepairTrialResult]:
    """Full repairs (encode, erase, transmit, repair), one per trial index.

    snr is one SnrPoint for every trial, or a sequence of one per trial.
    The helpers' blocks travel in sessions of the scheme's group size.
    Each trial's shares, plan and sessions are drawn from its own
    substream; the trials run in batches of at most SESSION_BATCH sessions
    (module docstring), and the results equal those of the trials run one
    at a time.
    """
    if scheme not in GROUP_SIZES:
        raise ValueError(f"scheme must be one of {tuple(GROUP_SIZES)}, got {scheme!r}")
    if cfg.d is None or cfg.fragment_bits is None:
        raise ValueError("repair trials need StorageConfig.d and fragment_bits")
    trials = list(trial_indices)
    points = [snr] * len(trials) if isinstance(snr, SnrPoint) else list(snr)
    if len(points) != len(trials):
        raise ValueError(f"{len(points)} SNR points for {len(trials)} trials")
    g = GROUP_SIZES[scheme]
    per_trial = -(-cfg.fragment_bits // (3 * m)) * -(-cfg.d // g)
    step = max(1, SESSION_BATCH // per_trial)
    results: list[RepairTrialResult] = []
    for lo in range(0, len(trials), step):
        shares, sent, sessions = _send_repairs(cfg, m, g, seed, trials[lo : lo + step])
        session_points = [p for p in points[lo : lo + step] for _ in range(per_trial)]
        outcomes = run_sessions(sessions, m, session_points, decoder_mode, noiseless)
        results += _finish_repairs(cfg, m, shares, sent, sessions, outcomes)
    return results


def run_session_trials(
    m: int,
    snr: SnrPoint | Sequence[SnrPoint],
    scheme: str,
    decoder_mode: str,
    seed: int,
    trial_indices,
) -> list[tuple[bool, int]]:
    """Storage-free session trials, each one session with fresh random
    fragments, decoded as one batch.

    snr is one SnrPoint for every trial, or a sequence of one per trial.
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
