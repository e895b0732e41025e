"""The sweep driver of the Monte Carlo commands and its worker pool.

sweep is the one place a sweep is cut into tasks.  A sweep is a grid of
points with the same number of units each (a unit is one trial for simulate
and repair, one RNG block for outage); cell j is unit j % units of point
j // units.  The cells are dealt round-robin into one task per worker, and
each worker returns integer counts per point, which the driver sums, so the
totals depend neither on the worker count nor on the order of the cells.

map_tasks runs the tasks.  Tasks must be picklable and the mapped function
a module-level callable.  Results come back in task order.  A pool starts
at most one process per task and per CPU, whatever count is asked, and
hands out one task at a time, so a free worker takes the next task instead
of a precut chunk landing on one worker.

Workers are spawned with one BLAS thread each: a pool already uses every
core it asks for, and BLAS threads inside each worker would only compete
for the same cores.  The thread-count variables are set while the pool
starts its processes and restored right after.  Spawned workers do not
re-run the CLI: multiprocessing skips re-importing a `*.__main__` module,
which is how `python -m wstsim` runs.
"""

from __future__ import annotations

import os

#: thread-count variables of the BLAS builds numpy may link against
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def map_tasks(fn, tasks, workers: int = 1) -> list:
    tasks = list(tasks)
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing  # only a pool needs it, so startup does not pay for it
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        processes = min(workers, len(tasks), os.cpu_count() or 1)
        pool = multiprocessing.get_context("spawn").Pool(processes=processes)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    with pool:
        return pool.map(fn, tasks, chunksize=1)


def sweep(worker, params, seed: int, grid: tuple, units: int, workers: int):
    """The counts of every point of grid, summed over the tasks that
    worker(task) runs.

    The len(grid) * units cells are dealt into n = min(workers, CPUs, cells)
    tasks (params, seed, grid, units, i, n); task i runs cells i, i + n,
    i + 2n, ... in that order and returns an int64 array with one row per
    point.  One task runs every cell in order.  A task names its first cell
    and the stride, so its size does not grow with the sweep.
    """
    n = max(1, min(workers, os.cpu_count() or 1, len(grid) * units))
    tasks = [(params, seed, grid, units, i, n) for i in range(n)]
    return sum(map_tasks(worker, tasks, workers))
