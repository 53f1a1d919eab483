"""One-dimensional k-means over the cluster variable, and the two rules
under it.  Each nearest-centroid cell is the interval between the
midpoints of neighbouring centroids; a value on a midpoint joins the
lower cell.  A float64 cut is found in sorted data of its own dtype by
rounding the cut into that dtype (``search_sorted``): the Lloyd loop,
``cell_counts`` and the compare reference all cut this way.  Centroids
are seeded by k-means++ on a random subset of the values, so the result
is deterministic given the seed.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np

from .grid import flat_copy

_SEED_VALUES = 1024  # k-means++ seeds from at most this many random values
_MAX_ITERS = 100
_DISTINCT_SLAB = 1 << 16  # values compared at once when counting distinct ones


def _midpoints(centroids: np.ndarray) -> np.ndarray:
    """The cell bounds of ascending centroids, in float64: the cell rule."""
    c = np.asarray(centroids, dtype=np.float64)
    return (c[:-1] + c[1:]) / 2


def _cut_keys(keys, dtype, side: str) -> np.ndarray:
    """Float64 keys rounded into ``dtype``, each toward the side that keeps
    ``x < key`` (side "left") or ``x <= key`` (side "right") true of the same x."""
    keys = np.asarray(keys, dtype=np.float64)
    if dtype == np.float64:  # rounding into float64 changes nothing
        return keys
    # a key past the dtype's range rounds to an infinity, which x orders as the key
    with np.errstate(over="ignore"):
        k = keys.astype(dtype)
        if side == "left":  # the least value of the dtype that is >= key
            np.nextafter(k, np.inf, out=k, where=k < keys)
        else:  # the greatest value of the dtype that is <= key
            np.nextafter(k, -np.inf, out=k, where=k > keys)
    return k


def search_sorted(x: np.ndarray, keys, side: str) -> np.ndarray:
    """``x.searchsorted(keys, side)`` of float64 keys, as if the sorted x
    were widened to float64, searched in x's own dtype."""
    return x.searchsorted(_cut_keys(keys, x.dtype, side), side=side)


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
    if not overwrite_input:
        x = x.copy()  # as np.sort copies before it sorts
    x.sort()
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
    for _ in range(_MAX_ITERS):
        bounds[1:-1] = search_sorted(x, _midpoints(centroids), "right")
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
    return np.searchsorted(_midpoints(centroids), values, side="left")


def cell_counts(centroids: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """Per cube in ``parts``, the row ``np.bincount(assign(centroids, cube),
    minlength=k)``, without a label.  A part's first three axes are one cube
    and any further axes list its cubes; it is copied once in its own floating
    dtype, one cube per row, and every row is sorted and cut at the midpoints."""
    dtype = np.result_type(np.float32, *{p.dtype for p in parts})
    cuts = _cut_keys(_midpoints(centroids), dtype, "right")  # search_sorted's keys, cut once
    counts = []
    for p in parts:
        x = flat_copy([p], dtype).reshape(-1, np.prod(p.shape[:3]))
        x.sort(axis=1)
        ends = [row.searchsorted(cuts, side="right") for row in x]
        counts.append(np.diff(ends, prepend=0, append=x.shape[1], axis=1))
    # stacked after the loop: a counts array made first cost 0.4 MB of peak RSS
    return np.concatenate(counts)
