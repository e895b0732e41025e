"""Shared test helpers."""

import os
from pathlib import Path

import wstsim
from wstsim.decoder import decode_session, factor_sessions


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


def decode_one(received, h, snr, m, mode="sphere"):
    """Decode one received session through both stages, as a stack of one."""
    (problem,) = factor_sessions([received], [h], snr, m)
    return decode_session(problem, mode)
