"""Block-Rayleigh multiple-access channel with reproducible substreams.

Model: Y = sqrt(snr_linear) * sum_k h_k x_k + W.  Every helper has one
transmit antenna: h_k is its length-n_r receive vector of i.i.d.
unit-variance circularly-symmetric complex Gaussians held constant over the
T channel uses of one session (independent across sessions), x_k its 1 x T
codeword row, and W unit-variance complex Gaussian noise.  Codebooks are
normalized to unit average energy per channel use, so the received
signal-to-noise ratio per receive antenna per channel use is
snr_linear * K_active.

Randomness: Philox counter substreams.  trial_rng(master_seed, *path) keys
the generator with the 64-bit master seed and places the path words (trial
index, grid index, ...) in the upper counter words, so distinct paths get
non-overlapping streams and every draw is a pure function of
(master_seed, path) no matter the execution order or worker count.

Stacks: every stage takes a run of sessions.  draw_session draws the
sessions that share one Generator (a repair trial's) with a single draw_cn
call, and transmit takes a leading session axis with one amplitude
sqrt(snr_linear) per session.  Neither changes a sample or a product: the
joint draw holds the per-session draws in turn, a stacked product is the
per-session one repeated, and each entry takes one multiply by its
session's amplitude, so a stack of sessions equals each session sent as a
stack of one, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np


def trial_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Counter-based substream for one trial (up to three path words)."""
    seed = int(master_seed)
    if not 0 <= seed < 2**64:
        raise ValueError("master seed must fit in 64 bits")
    if len(path) > 3:
        raise ValueError("at most three path words are supported")
    counter = [0, 0, 0, 0]
    for i, word in enumerate(path, start=1):
        word = int(word)
        if not 0 <= word < 2**64:
            raise ValueError("path words must fit in 64 bits")
        counter[i] = word
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def draw_cn(rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """i.i.d. CN(0, 1) samples: E[|z|^2] = 1, independent re/im parts.

    Each sample takes two consecutive standard normals, real part first.
    With out (a 1-D float64 array of at least 2 * prod(shape) entries) the
    samples are drawn into its leading entries and returned as a complex
    view of them, so a caller drawing many blocks can reuse one buffer;
    otherwise a new buffer is allocated.
    """
    size = 2 * math.prod(shape)
    buf = np.empty(size) if out is None else out[:size]
    rng.standard_normal(out=buf)
    # the samples of dividing the complex view by sqrt(2), which numpy does as
    # a multiplication by 1/sqrt(2), without the complex division; only a
    # normal that is exactly -0.0 could come out with the other sign of zero
    buf *= 1.0 / math.sqrt(2.0)
    return buf.view(complex).reshape(shape)


def snr_linear(db: float) -> float:
    """The linear SNR of a value in dB."""
    return 10.0 ** (db / 10.0)


def draw_session(
    rng: np.random.Generator, n_r: int, k_active: Sequence[int], T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh fading and noise for sessions drawn one after another from rng.

    k_active holds each session's number of active users, in order.  The
    sessions take one draw, which holds the samples of each session in turn
    (its channel first, then its noise: the first k*n_r samples are the
    fading, the rest the noise), and come back as stacks: the receive
    vector of every user, session by session, shape (sum(k_active), n_r),
    and the noise, shape (len(k_active), n_r, T).
    """
    counts = tuple(k_active)
    if not counts or min(n_r, T, *counts) < 1:
        raise ValueError("all dimensions must be positive")
    fading, noise = _draw_layout(n_r, n_r * T, counts)
    z = draw_cn(rng, (fading.size + noise.size,))
    return z[fading].reshape(-1, n_r), z[noise].reshape(-1, n_r, T)


@lru_cache(maxsize=256)
def _draw_layout(per_user: int, per_noise: int, counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where the fading and the noise samples of sessions drawn in turn sit
    in their joint draw (cached per layout, read-only)."""
    sizes = np.array(counts) * per_user + per_noise
    starts = np.cumsum(sizes) - sizes
    fading = np.concatenate([np.arange(s, s + k * per_user) for s, k in zip(starts.tolist(), counts)])
    noise = (starts + sizes - per_noise)[:, None] + np.arange(per_noise)
    fading.flags.writeable = False
    noise.flags.writeable = False
    return fading, noise.reshape(-1)


def transmit(X: np.ndarray, h: np.ndarray, w: np.ndarray, amp) -> np.ndarray:
    """Received matrices Y = amp * sum_k h_k x_k + W, shape (S, n_r, T).

    X stacks each session's transmit rows, shape (S, k_active, T); h holds
    the sessions' receive vectors (S, k_active, n_r), w their noise
    (S, n_r, T) and amp, shape (S,), each session's amplitude
    sqrt(snr_linear).  The stacked product runs, session by session, the
    matrix product of a stack of one, and every entry takes the one
    multiply by its session's amplitude, so each received matrix equals its
    own call's bit for bit.
    """
    k, n_r = h.shape[-2:]
    if X.shape[-2] != k:
        raise ValueError(f"codeword rows {X.shape[-2]} do not match {k} users")
    if w.shape[-2:] != (n_r, X.shape[-1]):
        raise ValueError(f"noise shape {w.shape[-2:]} != ({n_r}, {X.shape[-1]})")
    h_all = np.ascontiguousarray(np.swapaxes(h, -2, -1))  # (S, n_r, k), each laid out as a lone matrix
    return np.asarray(amp)[:, None, None] * (h_all @ X) + w
