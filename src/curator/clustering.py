"""One-dimensional k-means over the cluster variable.

The pipeline clusters one scalar, so every nearest-centroid cell is an
interval bounded by the midpoints of neighbouring centroids.  After one
sort, a Lloyd iteration finds each cell boundary with one
``searchsorted`` and each cell mean as a prefix-sum difference.
Centroids are seeded by k-means++ on a random subset of the values, so
the result is deterministic given the seed.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np

_SEED_VALUES = 1024  # k-means++ seeds from at most this many random values
_MAX_ITERS = 100


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on a random subset of the sorted values x: each new
    centroid is drawn with probability proportional to squared distance from
    the nearest existing one.  x holds at least k distinct values."""
    pool = x[rng.choice(x.size, size=min(_SEED_VALUES, x.size), replace=False)]
    centroids = [pool[rng.integers(pool.size)]]
    d2 = (pool - centroids[0]) ** 2
    while len(centroids) < k:
        total = d2.sum()
        if total > 0.0:
            centroids.append(pool[rng.choice(pool.size, p=d2 / total)])
            d2 = np.minimum(d2, (pool - centroids[-1]) ** 2)
        elif pool is not x:
            # the subset holds fewer than k distinct values; all of x holds enough
            pool = x
            d2 = functools.reduce(np.minimum, ((x - c) ** 2 for c in centroids))
        else:
            # the values left are so close to the centroids that their squared
            # distances underflow to 0: take the smallest one not yet drawn
            centroids.append(x[np.isin(x, centroids, invert=True)][0])
    return np.sort(np.array(centroids))


def kmeans_fit(
    values: np.ndarray, k: int, seed: int = 0, overwrite_input: bool = False
) -> np.ndarray:
    """Fit k-means to scalar values; returns the centroids in ascending order.

    k is reduced, with a warning, to the number of distinct values.  Lloyd
    iterations stop when the centroids repeat exactly, or after 100.  A
    centroid whose cell empties keeps its place.  With ``overwrite_input``
    a contiguous float64 ``values`` is sorted in place instead of copied,
    as ``np.percentile``'s flag allows.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if overwrite_input:
        x.sort()  # the algorithm np.sort runs on its copy
    else:
        x = np.sort(x)
    n = x.size
    if n == 0:
        raise ValueError("empty clustering input")
    if not (np.isfinite(x[0]) and np.isfinite(x[-1])):  # NaN sorts last
        raise ValueError("non-finite values in clustering input")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    distinct = 1 + int(np.count_nonzero(x[1:] != x[:-1]))
    if distinct < k:
        warnings.warn(
            f"only {distinct} distinct values; reducing cluster count from {k}",
            stacklevel=2,
        )
        k = distinct

    centroids = _kmeanspp_init(x, k, np.random.default_rng(seed))
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    np.cumsum(x, out=prefix[1:])
    for _ in range(_MAX_ITERS):
        # cell c holds x[lo[c]:hi[c]]; a value on a midpoint joins the lower cell
        cuts = np.searchsorted(x, (centroids[:-1] + centroids[1:]) / 2, side="right")
        lo = np.concatenate(([0], cuts))
        hi = np.concatenate((cuts, [n]))
        filled = hi > lo
        means = (prefix[hi] - prefix[lo]) / np.maximum(hi - lo, 1)
        # a prefix-sum difference can round past the cell's own values;
        # clipping keeps the centroids sorted
        means = np.clip(means, x[np.minimum(lo, n - 1)], x[hi - 1])
        updated = np.where(filled, means, centroids)
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids


def assign(centroids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Label each value with the index of its nearest centroid; centroids
    must be ascending.  A value exactly midway between two centroids gets
    the lower index."""
    c = np.asarray(centroids, dtype=np.float64)
    return np.searchsorted((c[:-1] + c[1:]) / 2, values, side="left")

