"""Shared test helpers."""

import math
import os
from pathlib import Path

import numpy as np

import wstsim
from wstsim.algebra import FieldElement, embed
from wstsim.channel import snr_linear, transmit
from wstsim.decoder import DecodeProblem, decode_session, factor, factor_sessions
from wstsim.encoder import build_equivalent_channel, build_pair_codeword, build_tdma_codeword


def wstsim_env() -> dict:
    """Environment for a child ``python -m wstsim`` that runs the package under test.

    The directory holding the ``wstsim`` package that this process imported
    goes in front of any existing PYTHONPATH.  A relative entry such as
    ``src`` no longer resolves once the child runs in another working
    directory, and an installed copy elsewhere must not shadow the code
    under test.
    """
    src = str(Path(wstsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def embedded_row(element: FieldElement) -> tuple[complex, complex, complex]:
    """The row any field element sends: its three embeddings, as lift builds
    them for a constellation point."""
    return embed(element, 0), embed(element, 1), embed(element, 2)


def amp_of(snr_db: float) -> float:
    """The amplitude sqrt(snr_linear) that scales a session sent at snr_db."""
    return math.sqrt(snr_linear(snr_db))


def codeword_one(rows, m):
    """One session's codeword from its one or two helpers' rows, built as a
    stack of one."""
    build = build_pair_codeword if len(rows) == 2 else build_tdma_codeword
    return build(*([row] for row in rows), m)[0]


def transmit_one(X, h, w, amp):
    """One session's received matrix, sent as a stack of one at amplitude amp."""
    return transmit(X[None], h[None], w[None], np.array([amp]))[0]


def equivalent_channel_one(h, basis):
    """One session's system matrix from its users' receive vectors
    (k_active, n_r), built as a stack of one."""
    return build_equivalent_channel(np.asarray(h)[None], basis)[0]


def factor_one(matrix, observation, levels):
    """One real system, factored as a stack of one."""
    mat, obs = np.asarray(matrix, dtype=float), np.asarray(observation, dtype=float)
    (problem,) = factor(DecodeProblem(mat[None], obs[None], levels))
    return problem


def decode_one(received, h, amp, m, mode="sphere"):
    """Decode one received session at amplitude amp through both stages, as
    a stack of one."""
    (problem,) = factor_sessions([received], [h], np.array([amp]), m)
    return decode_session(problem, mode)


def share_fragments(data: bytes, m: int) -> list[int]:
    """Cut a share into 3m-bit fragments, zero-padding the last one: the
    share read as one big-endian integer, shifted left to whole fragments.
    The oracle for the protocol's stacked cutter."""
    if not data:
        raise ValueError("cannot fragment an empty share")
    step = 3 * m
    count = -(-8 * len(data) // step)
    value = int.from_bytes(data, "big") << (count * step - 8 * len(data))
    mask = (1 << step) - 1
    return [(value >> (step * i)) & mask for i in range(count - 1, -1, -1)]


def join_fragments(fragments, m: int, n_bytes: int) -> bytes:
    """The n_bytes share whose bytes, cut into 3m-bit fragments and
    zero-padded at the end, are these fragments, whatever bits their
    padding holds.  The oracle for the protocol's share check."""
    value = 0
    for f in fragments:
        value = (value << 3 * m) | f
    pad = 3 * m * len(fragments) - 8 * n_bytes
    if not 0 <= pad < 3 * m:
        raise ValueError(f"{len(fragments)} fragments do not hold a {n_bytes}-byte share")
    return (value >> pad).to_bytes(n_bytes, "big")
