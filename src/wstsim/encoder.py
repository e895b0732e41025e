"""Per-session space-time code matrices and the vectorized linear system.

Each active helper transmits the three real embeddings of its lattice point
over T = 3 channel uses, one row per helper, so a pair session sends

    [ sigma_0(x_1)  sigma_1(x_1)  sigma_2(x_1) ]
    [ sigma_0(x_2)  sigma_1(x_2)  sigma_2(x_2) ]

and a single-helper (TDMA or leftover) session sends just one such row.
Rows are scaled by a constellation-wide normalizer so the codebook averages
unit energy per transmit antenna per channel use; with unit-variance noise
the channel module's sqrt(SNR) scaling then makes received SNR comparisons
between schemes fair.

In dispersion form row k of the codeword is sum_l x_{k,l} C[l] with
Gaussian-integer symbols x_{k,l} (the QAM coordinates) and one fixed
(s, T) basis matrix C = alpha * E shared by every helper, E[l, j] =
sigma_j(eta^l) the embeddings of the basis elements {1, eta, eta^2}.
Stacking the receive samples column-major turns a session into the linear
system y = H x whose column (k, l) is vec(h_k C[l]); columns are ordered
user-major, then basis index, matching x = [x_{1,1} .. x_{1,s} .. x_{K,s}].

Codewords, bases and systems are plain complex numpy arrays.  The codeword
builders and build_equivalent_channel also build a stack of sessions at
once, with a leading session axis, equal to the lone ones bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .algebra import ETA, ONE, ROOTS, embed
from .lift import LatticePoint, pam_levels

#: basis elements whose embeddings form the dispersion rows, in symbol order
_BASIS_ELEMENTS = (ONE, ETA, ETA * ETA)


def average_row_energy(m: int) -> float:
    """Mean squared norm per channel use of one unnormalized codeword row.

    QAM coordinates are independent and zero-mean, so the constellation
    average separates into the per-axis QAM power times the mean of
    1 + rho^2 + rho^4 over the three embeddings.  The lift module's tests
    reproduce this value by exhaustive enumeration.
    """
    order = 1 << (m // 2)
    qam_power = 2.0 * (order * order - 1) / 3.0
    basis_power = sum(1.0 + r * r + r**4 for r in ROOTS) / 3.0
    return qam_power * basis_power


@lru_cache(maxsize=None)
def normalizer(m: int) -> float:
    """Row scale factor making average energy 1 per antenna per channel use
    (cached per m)."""
    return 1.0 / math.sqrt(average_row_energy(m))


@lru_cache(maxsize=None)
def dispersion_basis(m: int) -> np.ndarray:
    """The dispersion rows alpha * E of the 2^m-QAM constellation, shape (s, T).

    E[l, j] = sigma_j(eta^l) is the l-th basis element's j-th embedding and
    alpha the constellation normalizer; every helper has a single transmit
    antenna and sends the same rows.  Cached and read-only.
    """
    pam_levels(m)  # validates m
    basis = normalizer(m) * np.array(
        [[embed(b, j) for j in range(3)] for b in _BASIS_ELEMENTS], dtype=complex
    )
    basis.flags.writeable = False
    return basis


def build_pair_codeword(
    p1: LatticePoint | Sequence[LatticePoint], p2: LatticePoint | Sequence[LatticePoint], m: int
) -> np.ndarray:
    """2 x 3 codeword of a pair session: row j is helper j's embedded row.

    p1 and p2 may also be equal-length sequences of points, one pair per
    session, for a stack (S, 2, 3) of codewords.
    """
    return _codewords(m, p1, p2)


def build_tdma_codeword(p: LatticePoint | Sequence[LatticePoint], m: int) -> np.ndarray:
    """1 x 3 codeword of a single-helper session (TDMA / odd-K leftover).

    p may also be a sequence of points, one per session, for a stack
    (S, 1, 3) of codewords.
    """
    return _codewords(m, p)


def _codewords(m: int, *helpers) -> np.ndarray:
    """The helpers' embedded rows times alpha: one codeword when each helper
    is a LatticePoint, a stack when each is a sequence of them.  Either way
    every entry is the same product, so a stacked codeword equals the lone
    one bit for bit."""
    rows = np.array(
        [h.embedded_row if isinstance(h, LatticePoint) else [p.embedded_row for p in h] for h in helpers],
        dtype=complex,
    )
    if rows.ndim == 3:  # (helper, session, T): sessions first
        rows = np.ascontiguousarray(rows.swapaxes(0, 1))
    return normalizer(m) * rows


def build_equivalent_channel(channels, basis: np.ndarray) -> np.ndarray:
    """The system matrix H with y = H x, shape (n_r*T, k_active*s).

    Column (k, l) is the column-major vectorization of H_k C_l, with C_l the
    basis row l.  With one transmit antenna, H_k C_l is the outer product of
    h_k and C_l, so entry (t*n_r + i, k*s + l) is C[l, t] * h_k[i]: the whole
    matrix is one broadcast product.  channels is one session's per-user
    channels (k_active, n_r, 1) or a stack (S, k_active, n_r, 1) of
    sessions, which gives a leading session axis; every entry is the same
    single product either way, so a stacked matrix equals the per-session
    ones bit for bit.
    """
    h = np.asarray(channels, dtype=complex)
    if h.ndim not in (3, 4):
        raise ValueError(f"expected per-user channels (k_active, n_r, 1), got shape {h.shape}")
    if h.shape[-1] != 1:
        raise ValueError(f"per-user channels must be n_r x 1, got shape {h.shape[-2:]}")
    s, T = basis.shape
    k, n_r = h.shape[-3:-1]
    hs = np.swapaxes(h[..., 0], -1, -2)  # (..., n_r, k)
    return (basis.T[:, None, None, :] * hs[..., None, :, :, None]).reshape(
        *h.shape[:-3], T * n_r, k * s
    )


def realify(H: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a complex system to a real one over integer PAM coordinates.

    Every complex entry h becomes the 2x2 block [[Re h, -Im h], [Im h, Re h]]
    and every complex sample splits into adjacent (re, im) coordinates, so
    real coordinates 2j and 2j+1 are the real and imaginary parts of complex
    symbol j.  H may carry a leading session axis; y then holds one
    observation per session.
    """
    mat = np.asarray(H, dtype=complex)
    *lead, rows, cols = mat.shape
    vec = np.asarray(y, dtype=complex).reshape(*lead, -1)
    if vec.shape[-1] != rows:
        raise ValueError(f"observation length {vec.shape[-1]} != {rows} rows")
    out = np.empty((*lead, 2 * rows, 2 * cols))
    out[..., 0::2, 0::2] = mat.real
    out[..., 0::2, 1::2] = -mat.imag
    out[..., 1::2, 0::2] = mat.imag
    out[..., 1::2, 1::2] = mat.real
    obs = np.empty((*lead, 2 * rows))
    obs[..., 0::2] = vec.real
    obs[..., 1::2] = vec.imag
    return out, obs

