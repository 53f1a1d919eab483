"""One-dimensional k-means over the cluster variable.

The pipeline clusters one scalar, so every nearest-centroid cell is an
interval bounded by the midpoints of neighbouring centroids.  After one
sort, a Lloyd iteration finds the cell boundaries with one
``searchsorted`` into a preallocated bounds array and each cell mean as
a difference of the prefix sums gathered at those bounds.
Centroids are seeded by k-means++ on a random subset of the values, so
the result is deterministic given the seed.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np

_SEED_VALUES = 1024  # k-means++ seeds from at most this many random values
_MAX_ITERS = 100
_DISTINCT_SLAB = 1 << 16  # values compared at once when counting distinct ones


def _count_distinct(x: np.ndarray, stop: int) -> int:
    """Distinct values in the sorted x, counted up to at least ``stop``: the
    count is exact when it is below ``stop``.  Neighbours are compared one
    slab at a time, so no array of x's length is made."""
    distinct = 1
    for start in range(0, x.size - 1, _DISTINCT_SLAB):
        end = min(start + _DISTINCT_SLAB, x.size - 1)
        distinct += int(np.count_nonzero(x[start + 1:end + 1] != x[start:end]))
        if distinct >= stop:
            break
    return distinct


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
            # rng.choice(pool.size, p=d2 / total)'s draw and stream, inline
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            centroids.append(pool[cdf.searchsorted(rng.random(), side="right")])
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
    distinct = _count_distinct(x, stop=k)
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
    # cell c holds x[bounds[c]:bounds[c + 1]]; the inner bounds are the cuts
    bounds = np.empty(k + 1, dtype=np.intp)
    bounds[0], bounds[-1] = 0, n
    lo, hi = bounds[:-1], bounds[1:]
    mids = np.empty(k - 1)
    for _ in range(_MAX_ITERS):
        # a value on a midpoint joins the lower cell
        np.add(centroids[:-1], centroids[1:], out=mids)
        mids /= 2
        bounds[1:-1] = np.searchsorted(x, mids, side="right")
        sizes = hi - lo
        sums = prefix[bounds]
        means = sums[1:] - sums[:-1]
        means /= np.maximum(sizes, 1)
        # a prefix-sum difference can round past the cell's own values;
        # clipping keeps the centroids sorted.  The clip bounds differ from
        # x[lo] and x[hi - 1] only in empty cells, which keep their centroid.
        np.maximum(means, x.take(lo, mode="clip"), out=means)
        np.minimum(means, x.take(hi - 1, mode="clip"), out=means)
        updated = np.where(sizes > 0, means, centroids)
        if (updated == centroids).all():
            break
        centroids = updated
    return centroids


def assign(centroids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Label each value with the index of its nearest centroid; centroids
    must be ascending.  A value exactly midway between two centroids gets
    the lower index."""
    c = np.asarray(centroids, dtype=np.float64)
    return np.searchsorted((c[:-1] + c[1:]) / 2, values, side="left")

