"""Independent reference models for the benchmark's output checks.

Nothing here imports wstsim: the code rebuilds, from the paper's
definitions, what the program's outputs must agree with.

- The code: the real roots of x^3 + x^2 - 2x - 1 give the three embeddings
  of the basis {1, eta, eta^2}; a point q1 + q2*eta + q3*eta^2 with square
  QAM coordinates q_l is sent as the row of its embeddings, scaled by a
  normaliser found by enumerating the whole constellation.
- The channel: a block-Rayleigh MAC with 2 receive antennas and T = 3,
  Y = sqrt(snr) * sum_k h_k x_k + W, every entry CN(0, 1).
- Decoding: exhaustive ML over every candidate.
- Outage: closed forms for the single-antenna users and a Monte Carlo of
  the pair scheme's three MAC constraints.

Statistical comparisons use exact binomial and hypergeometric tails, so
rare events (a handful of errors at high SNR) are judged correctly.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

#: p-value below which an estimate counts as disagreeing with its model
ALPHA = 1e-8

_ROOTS = np.sort(np.roots([1.0, 1.0, -2.0, -1.0]).real)[::-1]

#: V[l, t] = rho_t ** l: embedding t of basis element l
_V = np.array([[r**l for r in _ROOTS] for l in range(3)])


def pam(m: int) -> np.ndarray:
    side = 1 << (m // 2)
    return np.arange(-(side - 1), side, 2, dtype=float)


@functools.cache
def normaliser(m: int) -> float:
    """Row scale giving unit mean energy per channel use over the constellation."""
    axis = pam(m)
    qam = (axis[:, None] + 1j * axis[None, :]).reshape(-1)
    points = np.array(list(itertools.product(qam, repeat=3)))  # (M^3, 3)
    rows = points @ _V
    return 1.0 / math.sqrt(float(np.mean(np.abs(rows) ** 2)))


def _cn(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def draw_sessions(rng, n: int, users: int, m: int, snr_db: float):
    """Random sessions as real systems y = A c + w.

    Returns (A, y, c): A is (n, 12, 6*users), c holds the sent real
    coordinates (re parts first, then im parts, of the 3*users symbols).
    """
    axis = pam(m)
    scale = math.sqrt(10.0 ** (snr_db / 10.0)) * normaliser(m)
    h = _cn(rng, (n, users, 2))
    # B[(r, t), (k, l)] = scale * h_k[r] * V[l, t]
    b = scale * np.einsum("nkr,lt->nrtkl", h, _V).reshape(n, 6, 3 * users)
    a = np.concatenate(
        [np.concatenate([b.real, -b.imag], axis=2), np.concatenate([b.imag, b.real], axis=2)],
        axis=1,
    )
    c = axis[rng.integers(0, len(axis), size=(n, 6 * users))]
    w = rng.standard_normal((n, 12)) / math.sqrt(2.0)
    y = np.einsum("nij,nj->ni", a, c) + w
    return a, y, c


def ml_errors(rng, n: int, users: int, m: int, snr_db: float, batch: int = 256) -> int:
    """Sessions out of n that exhaustive ML decodes wrongly."""
    axis = pam(m)
    dim = 6 * users
    cands = np.array(list(itertools.product(axis, repeat=dim)))  # (L, dim)
    iu = np.triu_indices(dim)
    weight = np.where(iu[0] == iu[1], 1.0, 2.0)
    quad = (cands[:, iu[0]] * cands[:, iu[1]] * weight).T  # (dim(dim+1)/2, L)
    index_of = {tuple(c): i for i, c in enumerate(cands)}
    errors = 0
    done = 0
    while done < n:
        k = min(batch, n - done)
        a, y, c = draw_sessions(rng, k, users, m, snr_db)
        gram = np.einsum("nij,nik->njk", a, a)[:, iu[0], iu[1]]
        lin = np.einsum("nij,ni->nj", a, y)
        # ||y - A x||^2 - ||y||^2 = x'Gx - 2 b'x for every candidate x
        metric = gram @ quad - 2.0 * (lin @ cands.T)
        best = np.argmin(metric, axis=1)
        sent = np.array([index_of[tuple(row)] for row in c])
        errors += int(np.count_nonzero(best != sent))
        done += k
    return errors


def gamma2_cdf(x):
    """CDF of ||h||^2 for h with two CN(0, 1) entries: Gamma(2, 1)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-x) * (1.0 + x)


def single_user_outage(rate_bits, snr_db: float):
    """P(log2(1 + snr * ||h||^2) < rate) for a 1x2 Rayleigh link."""
    snr = 10.0 ** (snr_db / 10.0)
    return gamma2_cdf((2.0 ** np.asarray(rate_bits, dtype=float) - 1.0) / snr)


def rate_bits(gain: float, snr_db: float, offset: float) -> float:
    return gain * math.log2(10.0 ** (snr_db / 10.0)) + offset


def pair_outages(rng, n: int, snr_db: float, user_rate: float) -> int:
    """Monte Carlo of the pair's two single-user and one joint constraint."""
    snr = 10.0 ** (snr_db / 10.0)
    h = _cn(rng, (n, 2, 2))  # (trial, user, antenna)
    energy = (np.abs(h) ** 2).sum(axis=2)
    det = np.abs(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]) ** 2
    joint = 1.0 + snr * energy.sum(axis=1) + snr * snr * det
    out = (np.log2(1.0 + snr * energy) < user_rate).any(axis=1)
    out |= np.log2(joint) < 2.0 * user_rate
    return int(np.count_nonzero(out))


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def _tail(logpmf, start: int, stop: int, step: int) -> float:
    """Sum exp(logpmf(i)) from start towards stop, stopping once negligible."""
    total = 0.0
    i = start
    peak = -math.inf
    while (i <= stop) if step > 0 else (i >= stop):
        lp = logpmf(i)
        peak = max(peak, lp)
        total += math.exp(lp)
        if lp < peak - 50.0:
            break
        i += step
    return min(total, 1.0)


def binom_low(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Bin(n, p)."""
    return _tail(lambda i: _log_binom_pmf(i, n, p), k, 0, -1)


def binom_high(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Bin(n, p)."""
    return _tail(lambda i: _log_binom_pmf(i, n, p), k, n, 1)


def _log_hyper(x: int, k1n: int, n1: int, n2: int) -> float:
    """log P(X = x), X the events in sample 1 given k1n events in n1 + n2."""
    def lc(a, b):
        if b < 0 or b > a:
            return -math.inf
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    return lc(n1, x) + lc(n2, k1n - x) - lc(n1 + n2, k1n)


def two_sample_low(k1: int, n1: int, k2: int, n2: int) -> float:
    """P-value that sample 1's rate is below sample 2's (Fisher, one-sided)."""
    total = k1 + k2
    return _tail(lambda x: _log_hyper(x, total, n1, n2), k1, max(0, total - n2), -1)


def two_sample_high(k1: int, n1: int, k2: int, n2: int) -> float:
    """P-value that sample 1's rate is above sample 2's (Fisher, one-sided)."""
    total = k1 + k2
    return _tail(lambda x: _log_hyper(x, total, n1, n2), k1, min(n1, total), 1)
