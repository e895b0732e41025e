import multiprocessing
import os
import subprocess
import sys

import pytest

from conftest import wstsim_env
from wstsim import parallel
from wstsim.parallel import BLAS_THREAD_VARS, map_tasks


def test_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert map_tasks(os.getenv, BLAS_THREAD_VARS, workers=2) == ["1"] * len(BLAS_THREAD_VARS)
    # the calling process keeps its own settings
    assert os.environ["OMP_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ


class InlinePool:
    def __init__(self, chunksizes):
        self.chunksizes = chunksizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=None):
        self.chunksizes.append(chunksize)
        return [fn(t) for t in tasks]


@pytest.mark.parametrize("workers, n_tasks, processes", [(100_000, 50, 3), (2, 50, 2), (100_000, 2, 2)])
def test_pool_starts_at_most_one_process_per_task_and_cpu(monkeypatch, workers, n_tasks, processes):
    methods, asked, chunksizes = [], [], []

    class RecordingContext:
        def Pool(self, processes):
            asked.append(processes)
            return InlinePool(chunksizes)

    def get_context(method):
        methods.append(method)
        return RecordingContext()

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    assert map_tasks(abs, range(-n_tasks, 0), workers) == list(range(n_tasks, 0, -1))
    assert methods == ["spawn"]
    assert asked == [processes]
    # one task per dispatch: default chunks could put a point's ranges on one worker
    assert chunksizes == [1]


def test_importing_the_cli_leaves_multiprocessing_out():
    # only a pool of workers > 1 needs multiprocessing; it is not paid for at startup
    code = "import sys, wstsim.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    res = subprocess.run([sys.executable, "-c", code], env=wstsim_env(), capture_output=True, text=True, check=True)
    assert res.stdout == "[]\n"
