"""Shared test helpers."""

import os
from pathlib import Path

import wstsim
from wstsim.algebra import FieldElement, embed
from wstsim.decoder import decode_session, factor_sessions
from wstsim.lift import LatticePoint


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


def lattice_point(element: FieldElement) -> LatticePoint:
    """The lattice point of any field element: the element and its three
    embeddings, as lift builds them for a constellation point."""
    return LatticePoint(element, (embed(element, 0), embed(element, 1), embed(element, 2)))


def decode_one(received, h, snr, m, mode="sphere"):
    """Decode one received session through both stages, as a stack of one."""
    (problem,) = factor_sessions([received], [h], snr, m)
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
