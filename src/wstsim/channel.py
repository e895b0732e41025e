"""Block-Rayleigh multiple-access channel with reproducible substreams.

Model: Y = sqrt(snr_linear) * sum_k H_k X_k + W, with H_k an n_r x n_t
matrix of i.i.d. unit-variance circularly-symmetric complex Gaussians held
constant over the T channel uses of one session (independent across
sessions), and W unit-variance complex Gaussian noise.  Codebooks are
normalized to unit average energy per transmit antenna per channel use, so
the received signal-to-noise ratio per receive antenna per channel use is
snr_linear * n_t * K_active.

Randomness: Philox counter substreams.  trial_rng(master_seed, *path) keys
the generator with the 64-bit master seed and places the path words (trial
index, grid index, ...) in the upper counter words, so distinct paths get
non-overlapping streams and every draw is a pure function of
(master_seed, path) no matter the execution order or worker count.

Stacks: draw_session also draws a run of sessions that share one Generator
(a repair trial's) with a single draw_cn call, and transmit takes a leading
session axis, with one SNR for the stack or one per session.  Neither
changes a sample or a product: the joint draw holds the per-session draws in
turn, a stacked product is the per-session one repeated, and a per-session
scale is the same IEEE multiply as a scalar one, so the stacked values equal
the per-session ones bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SnrPoint:
    snr_db: float

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


def amplitudes(snr: SnrPoint | Sequence[SnrPoint], count: int) -> np.ndarray:
    """The amplitude sqrt(snr_linear) of each of count sessions, as a float
    array: snr is one SnrPoint for all of them, or a sequence of one each."""
    if isinstance(snr, SnrPoint):
        return np.full(count, math.sqrt(snr.snr_linear))
    points = list(snr)
    if len(points) != count:
        raise ValueError(f"{len(points)} SNR points for {count} sessions")
    root = {db: math.sqrt(SnrPoint(db).snr_linear) for db in {p.snr_db for p in points}}
    return np.array([root[p.snr_db] for p in points], dtype=float)


def amplitude(snr: SnrPoint | np.ndarray) -> float | np.ndarray:
    """The factor that scales a session's signal: sqrt(snr_linear) of an
    SnrPoint, or per-session amplitudes (S,) reshaped to (S, 1, 1) to scale
    a stack of S matrices."""
    return math.sqrt(snr.snr_linear) if isinstance(snr, SnrPoint) else np.asarray(snr)[:, None, None]


def draw_session(
    rng: np.random.Generator, n_r: int, n_t: int, k_active: int | Sequence[int], T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh fading and noise for one session (channel first, then noise).

    Returns the per-user fading matrices, shape (k_active, n_r, n_t), and
    the additive noise, shape (n_r, T).  Both come from one draw: the first
    k_active*n_r*n_t samples are the fading, the rest the noise.

    k_active may also be a sequence of active counts: sessions drawn one
    after another from rng, in order.  They then take one draw, which holds
    the samples of the per-session draws in turn, and come back as stacks:
    the fading of every user, session by session, shape
    (sum(k_active), n_r, n_t), and the noise, shape (len(k_active), n_r, T).
    """
    single = isinstance(k_active, (int, np.integer))
    counts = (k_active,) if single else tuple(k_active)
    if not counts or min(n_r, n_t, T, *counts) < 1:
        raise ValueError("all dimensions must be positive")
    if single:
        n_h = k_active * n_r * n_t
        z = draw_cn(rng, (n_h + n_r * T,))
        return z[:n_h].reshape(k_active, n_r, n_t), z[n_h:].reshape(n_r, T)
    fading, noise = _draw_layout(n_r * n_t, n_r * T, counts)
    z = draw_cn(rng, (fading.size + noise.size,))
    return z[fading].reshape(-1, n_r, n_t), z[noise].reshape(-1, n_r, T)


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


def transmit(X: np.ndarray, h: np.ndarray, w: np.ndarray, snr: SnrPoint | np.ndarray) -> np.ndarray:
    """Received matrix Y = sqrt(snr) * sum_k H_k X_k + W, shape (n_r, T).

    X stacks the active helpers' transmit rows, shape (k_active*n_t, T); h
    holds their fading matrices (k_active, n_r, n_t) and w the noise (n_r, T).
    All three may carry a leading session axis, (S, ...), and Y then does
    too: a stacked product runs, session by session, the matrix product of
    a lone session, so each received matrix equals its own call's bit for
    bit.  snr is an SnrPoint, or for a stack each session's amplitude
    sqrt(snr_linear) as an (S,) array (see amplitudes); either way every
    entry takes the one multiply by its session's amplitude.
    """
    k, n_r, n_t = h.shape[-3:]
    if X.shape[-2] != k * n_t:
        raise ValueError(
            f"codeword rows {X.shape[-2]} do not match {k} users x {n_t} antennas"
        )
    if w.shape[-2:] != (n_r, X.shape[-1]):
        raise ValueError(f"noise shape {w.shape[-2:]} != ({n_r}, {X.shape[-1]})")
    h_all = np.swapaxes(h, -3, -2).reshape(*h.shape[:-3], n_r, k * n_t)
    return amplitude(snr) * (h_all @ X) + w
