import os

from wstsim.parallel import BLAS_THREAD_VARS, map_tasks


def test_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert map_tasks(os.getenv, BLAS_THREAD_VARS, workers=2) == ["1"] * len(BLAS_THREAD_VARS)
    # the calling process keeps its own settings
    assert os.environ["OMP_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ
