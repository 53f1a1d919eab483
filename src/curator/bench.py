"""Worker-pool execution and the strong-scaling harness.

`parallel_map` owns every pool rule, and its initializer hands each
worker the work function, so no start method needs fork's inherited
memory.  A work unit is a selected cube of a pipeline run or a (method,
seed) cell of a comparison, whose pipeline runs whole in one worker.
The Phase-1 model fit and the final merge stay single-threaded.
Correctness precedes performance: scaling timings are only reported
after the outputs at every worker count are verified identical to the
single-worker run.
"""
from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from .grid import GridDataset, RunConfig

_work_fn = None


def _install(fn) -> None:
    """Pool initializer: each worker receives its work function once."""
    global _work_fn
    _work_fn = fn


def _trampoline(item):
    return _work_fn(item)


def parallel_map(fn, items: list, workers: int) -> list:
    """Ordered map over items on a pool of at most one forked process per item.

    It runs in-process for one process or inside a pool worker (a daemon
    has no children).  Results are identical either way because each work
    unit derives its own random stream and touches no shared mutable state.
    """
    workers = min(workers, len(items))
    if workers <= 1 or mp.current_process().daemon:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (4 * workers))
    with mp.get_context("fork").Pool(workers, initializer=_install, initargs=(fn,)) as pool:
        return pool.map(_trampoline, items, chunksize=chunksize)


class OutputMismatchError(RuntimeError):
    """Parallel run produced output differing from the serial reference."""


@dataclass
class ScalingResult:
    workers: list[int]
    wall_seconds: list[float]
    speedup: list[float]
    efficiency: list[float]
    knee_workers: int | None = None

    def rows(self) -> list[tuple[int, float, float, float]]:
        return list(zip(self.workers, self.wall_seconds, self.speedup, self.efficiency))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("workers,wall_seconds,speedup,efficiency\n")
            for w, t, s, e in self.rows():
                fh.write(f"{w},{t:.6f},{s:.6f},{e:.6f}\n")


def detect_knee(
    rows: list[tuple[int, float, float, float]], threshold: float = 0.5
) -> int | None:
    """Smallest worker count whose efficiency falls strictly below the
    threshold; None if efficiency never collapses."""
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows to detect a knee, got {len(rows)}")
    for workers, _wall, _speedup, efficiency in sorted(rows):
        if efficiency < threshold:
            return workers
    return None


def run_scaling_study(
    config: RunConfig,
    dataset: GridDataset,
    worker_counts: list[int],
    repeats: int = 3,
    knee_threshold: float = 0.5,
) -> ScalingResult:
    """Time the full pipeline at each worker count (minimum of repeats).

    Speedup and efficiency are computed against the 1-worker minimum.
    Any cross-worker-count output mismatch is a hard failure.
    """
    from .samplers import run_pipeline

    if 1 not in worker_counts:
        raise ValueError("worker_counts must include 1")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    counts = sorted(set(int(w) for w in worker_counts))

    reference_digest = None
    minima: dict[int, float] = {}
    for workers in counts:
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_pipeline(config, dataset, workers=workers)
            best = min(best, time.perf_counter() - t0)
            digest = result.content_digest()
            if reference_digest is None:
                reference_digest = digest
            elif digest != reference_digest:
                raise OutputMismatchError(
                    f"output at {workers} workers differs from the 1-worker reference"
                )
        minima[workers] = best

    t1 = minima[1]
    speedup = [t1 / minima[w] for w in counts]
    efficiency = [s / w for s, w in zip(speedup, counts)]
    result = ScalingResult(
        workers=counts,
        wall_seconds=[minima[w] for w in counts],
        speedup=speedup,
        efficiency=efficiency,
    )
    if len(counts) >= 3:
        result.knee_workers = detect_knee(result.rows(), knee_threshold)
    return result
