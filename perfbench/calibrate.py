"""Host-speed reference for the benchmark's operation timings.

The benchmark runs on a few vCPUs of a shared machine whose speed drifts
by tens of percent over minutes, as neighbours' load comes and goes; the
same operation's median time then differs between runs far more than any
change worth detecting.  A fixed reference kernel, timed in short chunks
between the operations of a run, slows down with the host in the same way.
`wall_norm_s` divides that drift out.  Each operation's seconds are scaled
by REF_CHUNK_S over the host's chunk time around it, the mean of the
median chunk of the blocks just before and just after it:

    wall_norm_s = median over ops of (op seconds * REF_CHUNK_S / chunk seconds)

that is, the operation's time on a host where one chunk takes REF_CHUNK_S.
The kernel does not call the program, so a change to the program moves
`wall_norm_s` exactly as it moves the raw time on a steady host.

Only operations that run in one process are scaled.  An operation with
pool workers runs on several vCPUs at once, and forks and pickles between
them; its time does not follow the kernel's (scaling it widened the
spread of its run medians on that host), so it is reported as measured.

The kernel mixes the two kinds of work the workloads do: a Python loop of
small numpy calls (a pairwise KL loop over 16-bin histograms) and
whole-array numpy passes (sort and log of 2^19 doubles).
"""
from __future__ import annotations

import time

import numpy as np

# Median seconds of one chunk on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4).  Any fixed value would do; this one keeps wall_norm_s close
# to the raw seconds on that host.
REF_CHUNK_S = 0.02

MIN_CHUNKS = 3

_rng = np.random.default_rng(0)
_HISTS = _rng.random((40, 16))
_HISTS /= _HISTS.sum(axis=1, keepdims=True)
_ARRAY = _rng.random(1 << 19)


def chunk() -> float:
    """Run the reference kernel once; returns its seconds."""
    t0 = time.perf_counter()
    for p in _HISTS:
        ps = (p + 1e-10) / (1.0 + p.size * 1e-10)
        for q in _HISTS:
            qs = (q + 1e-10) / (1.0 + q.size * 1e-10)
            max(float(np.sum(ps * np.log(ps / qs))), 0.0)
    np.log(np.sort(_ARRAY) + 1.0)
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list[float]:
    """Run chunks for at least `seconds` and MIN_CHUNKS; returns their times."""
    times: list[float] = []
    while len(times) < MIN_CHUNKS or sum(times) < seconds:
        times.append(chunk())
    return times

