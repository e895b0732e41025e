import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import amp_of, wstsim_env
from wstsim import cli, outage, parallel
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


# ---------------------------------------------------------------------------
# the sweep driver: cell j is unit j % units of point j // units, and task i
# of n runs cells i, i + n, i + 2n, ...
# ---------------------------------------------------------------------------

GRID = (10.0, 15.0, 20.0, 25.0)


def cells_per_point(task):
    """How many cells of each point task runs."""
    _, _, grid, units, i, n = task
    # cells j < x with j = i mod n, at each point's first cell x
    before = [(x - i + n - 1) // n for x in range(0, (len(grid) + 1) * units, units)]
    return np.diff(before)


def collect_tasks(monkeypatch, cpus):
    """Make the driver collect its tasks instead of running them; each task
    reports its number of cells at a point for every count of the point."""
    tasks = []

    def collect(worker, task_list, workers):
        tasks.extend(task_list)
        if worker is outage._block_counts:
            return [np.zeros(len(t[2]), dtype=np.int64) for t in task_list]
        width = 3 if worker is cli._session_range else 6
        return [np.repeat(cells_per_point(t)[:, None], width, axis=1) for t in task_list]

    monkeypatch.setattr(parallel, "map_tasks", collect)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    return tasks


def run_serially(monkeypatch, cpus):
    """Make the driver run its tasks in this process, in order, and keep them."""
    tasks = []

    def serial(worker, task_list, workers):
        tasks.extend(task_list)
        return [worker(t) for t in task_list]

    monkeypatch.setattr(parallel, "map_tasks", serial)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    return tasks


@pytest.mark.parametrize("command", ["outage", "simulate", "repair"])
@pytest.mark.parametrize("trials", [1, 3, outage.BLOCK_TRIALS + 1, 10**12])
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_a_task_names_its_first_cell_and_the_stride(monkeypatch, tmp_path, command, trials, workers):
    # 4 SNR points on a 3-CPU machine; even 10**12 trials a point make at
    # most 3 small tasks, which are only collected, not run
    tasks = collect_tasks(monkeypatch, cpus=3)
    argv = [command, "--trials", str(trials), "--snr-grid", "10:25:5", "--workers", str(workers),
            "--seed", "7", "--out-dir", str(tmp_path)]
    if command == "outage":
        argv += ["--scheme", "tdma", "--K", "2"]
    assert cli.main(argv) == (4 if command == "outage" else 0)  # outage: no event, no slope
    units = -(-trials // outage.BLOCK_TRIALS) if command == "outage" else trials
    n = min(workers, 3, 4 * units)
    params = tasks[0][0]
    assert tasks == [(params, 7, GRID, units, i, n) for i in range(n)]
    if command == "outage":
        assert params == ("tdma", 2, Fraction(0), 1.0, trials)
    column, name = {
        "outage": (5, "outage_tdma_K2.csv"),
        "simulate": (4, "simulate_pair_m2_sphere.csv"),
        "repair": (1, "repair_pair.csv"),
    }[command]
    rows = (tmp_path / name).read_text().splitlines()[3:]
    assert [int(row.split(",")[column]) for row in rows] == [trials] * 4


@pytest.mark.parametrize("workers", [1, 2, 4, 6, 9])
def test_every_outage_block_is_drawn_once_at_its_size(monkeypatch, workers):
    # 3 blocks a point, the last of 3 trials, at 2 points: 6 cells
    trials = 2 * outage.BLOCK_TRIALS + 3
    spec = outage.OutageSpec("tdma", 2, Fraction(1, 2), 0.0, (0.0, 10.0), trials, 5)
    alone = outage.run_outage_sweep(spec)
    keys, sizes = [], []
    real_rng, real_draw = outage.trial_rng, outage.draw_cn

    def recording_rng(*key):
        keys.append(key)
        return real_rng(*key)

    def recording_draw(rng, shape, out):
        sizes.append(shape[0])
        return real_draw(rng, shape, out=out)

    monkeypatch.setattr(outage, "trial_rng", recording_rng)
    monkeypatch.setattr(outage, "draw_cn", recording_draw)
    tasks = run_serially(monkeypatch, cpus=16)
    assert outage.run_outage_sweep(spec, workers) == alone
    n = min(workers, 6)
    assert tasks == [(("tdma", 2, Fraction(1, 2), 0.0, trials), 5, (0.0, 10.0), 3, i, n) for i in range(n)]
    every_block = [((5, p, b), size) for p in range(2) for b, size in enumerate((outage.BLOCK_TRIALS,) * 2 + (3,))]
    assert sorted(zip(keys, sizes)) == every_block


@pytest.mark.parametrize("command", ["simulate", "repair"])
def test_every_trial_runs_once_at_its_point_for_any_worker_count(monkeypatch, tmp_path, command):
    # 5 trials at 2 points: trial t of point i has index 5 i + t, whatever
    # the worker count, and every worker count writes the same CSV
    seen = []
    name = {"simulate": "run_session_trials", "repair": "run_repair_trials"}[command]
    real = getattr(cli, name)

    def recording(*args):
        amps, indices = (args[1], args[5]) if command == "simulate" else (args[2], args[6])
        seen.extend(zip(indices, amps))
        return real(*args)

    monkeypatch.setattr(cli, name, recording)
    outputs = set()
    for workers in (1, 2, 4, 6, 9):
        seen.clear()
        tasks = run_serially(monkeypatch, cpus=16)
        out = tmp_path / str(workers)
        argv = [command, "--trials", "5", "--snr-grid", "20:30:10", "--workers", str(workers),
                "--seed", "2", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        assert [t[4:] for t in tasks] == [(i, min(workers, 10)) for i in range(min(workers, 10))]
        assert sorted(seen) == [(j, amp_of(20.0 if j < 5 else 30.0)) for j in range(10)]
        outputs.add(next(out.glob("*.csv")).read_bytes())
    assert len(outputs) == 1


def test_one_trial_at_five_points_can_use_two_workers(monkeypatch, tmp_path):
    # each trial is a cell of its own, so a 1-trial sweep still spreads out
    tasks = run_serially(monkeypatch, cpus=4)
    argv = ["simulate", "--trials", "1", "--snr-grid", "10:30:5", "--workers", "2",
            "--seed", "3", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert [t[3:] for t in tasks] == [(1, 0, 2), (1, 1, 2)]
    rows = (tmp_path / "simulate_pair_m2_sphere.csv").read_text().splitlines()[3:]
    assert [int(row.split(",")[4]) for row in rows] == [1] * 5
