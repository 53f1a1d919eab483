"""One-dimensional k-means over the cluster variable, and the two rules
under it.  Each nearest-centroid cell is the interval between the
midpoints of neighbouring centroids (``cell_bounds``); a value on a
midpoint joins the lower cell.  A float64 cut is found in sorted data of
its own dtype by rounding the cut into that dtype (``search_sorted``): the
Lloyd loop, ``cell_counts``, ``cell_histograms`` and the compare reference
all cut this way.  ``kmeans_fit_rows`` fits many equal-length rows at once,
one Lloyd loop over (rows, k) arrays; ``kmeans_fit`` is its one-row case.
Centroids are seeded by k-means++ on a random subset of each row's values,
so the result is deterministic given the seed.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np

from .grid import flat_copy

_SEED_VALUES = 1024  # k-means++ seeds from at most this many random values
_MAX_ITERS = 100
# values read at once when counting distinct ones and when building a sparse
# prefix; a multiple of _PREFIX_STEP
_SLAB = 1 << 16
_DENSE_PREFIX_MAX = 1 << 16  # a fit of at most this many values keeps every prefix sum
_PREFIX_STEP = 64  # a larger fit keeps every 64th prefix sum


def cell_bounds(centroids: np.ndarray) -> np.ndarray:
    """The cell bounds of ascending centroids, in float64: the cell rule.
    Along the last axis, so a 2-d array gives each row's bounds."""
    c = np.asarray(centroids, dtype=np.float64)
    return (c[..., :-1] + c[..., 1:]) / 2


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
    for start in range(0, x.size - 1, _SLAB):
        end = min(start + _SLAB, x.size - 1)
        distinct += int(np.count_nonzero(x[start + 1:end + 1] != x[start:end]))
        if distinct >= stop:
            break
    return distinct


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on a random subset of the sorted values x: each new
    centroid is drawn with probability proportional to squared distance from
    the nearest existing one.  x holds at least k distinct values; the values
    drawn from are widened to float64."""
    pool = x[rng.choice(x.size, size=min(_SEED_VALUES, x.size), replace=False)].astype(np.float64)
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
            pool = x = x.astype(np.float64, copy=False)
            d2 = functools.reduce(np.minimum, ((x - c) ** 2 for c in centroids))
        else:
            # the values left are so close to the centroids that their squared
            # distances underflow to 0: take the smallest one not yet drawn
            centroids.append(x[np.isin(x, centroids, invert=True)][0])
    return np.sort(np.array(centroids))


def _sparse_prefix(x: np.ndarray, size: int):
    """The lookup ``prefix[bounds]`` of ``size`` bounds into the float64
    prefix sums of x (``prefix[0] = 0.0``, then ``np.cumsum(x)``), keeping
    only every 64th sum.  ``np.add.accumulate`` adds in order, so a sum
    continued from a kept one equals ``prefix[i]`` bit for bit."""
    step = _PREFIX_STEP
    kept = np.empty(x.size // step + 1)
    run = np.empty(_SLAB + 1)
    carry = -0.0  # the empty sum: -0.0 + v is v for every v, where 0.0 + -0.0 is 0.0
    for a in range(0, x.size, _SLAB):
        part = run[:min(_SLAB, x.size - a) + 1]
        part[0] = carry
        part[1:] = x[a:a + part.size - 1]
        np.cumsum(part, out=part)
        kept[a // step:a // step + (part.size - 1) // step + 1] = part[::step]
        carry = part[-1]
    # each row: a kept sum, then the step - 1 values after it, summed along the row
    rows, offsets, picks = np.empty((size, step)), np.arange(step - 1), np.arange(size)

    def prefix_at(bounds: np.ndarray) -> np.ndarray:
        start = bounds // step
        rows[:, 0] = kept[start]
        start *= step
        rows[:, 1:] = x.take(start[:, None] + offsets, mode="clip")
        np.cumsum(rows, axis=1, out=rows)
        sums = rows[picks, bounds - start]
        sums[bounds == 0] = 0.0  # prefix[0]; the -0.0 carry only seeds the sums after it
        return sums

    return prefix_at


def kmeans_fit(
    values: np.ndarray, k: int, seed: int = 0, overwrite_input: bool = False
) -> np.ndarray:
    """Fit k-means to scalar values; returns the centroids in ascending order.

    k is reduced, with a warning, to the number of distinct values.  Lloyd
    iterations stop when the centroids repeat exactly, or after 100.  A
    centroid whose cell empties keeps its place.  Float32 values are sorted
    and cut in float32, any others in float64; the centroids are the fit of
    the values widened to float64, whose cell sums come from float64 prefix
    sums.  A fit of more than 2^16 values keeps every 64th prefix sum, not
    all n + 1 (``_sparse_prefix``), so it holds about one copy of its input.
    With ``overwrite_input`` a contiguous float32 or float64 ``values`` is
    sorted in place instead of copied, as ``np.percentile``'s flag allows.
    The one-row case of ``kmeans_fit_rows``.
    """
    x = np.asarray(values)
    x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False).ravel()
    if not overwrite_input:
        x = x.copy()  # as np.sort copies before it sorts
    return kmeans_fit_rows(x.reshape(1, -1), k, [seed])[0]


def kmeans_fit_rows(x: np.ndarray, k: int, seeds: list) -> list[np.ndarray]:
    """Fit k-means to each row of the C-contiguous float32 or float64 2-d x,
    sorting the rows in place; returns each row's centroids in ascending
    order, row r's seeded by ``seeds[r]``, by ``kmeans_fit``'s rules.  A
    row whose centroids repeated is a fixed point of the Lloyd step, so it
    waits unchanged while the other rows go on."""
    x.sort(axis=1)
    rows, n = x.shape
    if n == 0:
        raise ValueError("empty clustering input")
    if not (np.isfinite(x[:, 0]).all() and np.isfinite(x[:, -1]).all()):  # NaN sorts last
        raise ValueError("non-finite values in clustering input")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ks = []
    for row in x:
        distinct = _count_distinct(row, stop=k)
        if distinct < k:
            warnings.warn(
                f"only {distinct} distinct values; reducing cluster count from {k}",
                stacklevel=2,
            )
        ks.append(min(k, distinct))

    # a row whose k shrank pads its centroids with inf: those cells start at n
    # and stay empty, so they keep their place and never move the row
    centroids = np.full((rows, max(ks)), np.inf)
    for row, c, kr, seed in zip(x, centroids, ks, seeds):
        c[:kr] = _kmeanspp_init(row, kr, np.random.default_rng(seed))
    if n > _DENSE_PREFIX_MAX:
        lookups = [_sparse_prefix(row, centroids.shape[1] + 1) for row in x]
        looked_up = np.empty((rows, centroids.shape[1] + 1))

        def prefix_at(bounds):
            for lookup, b, out in zip(lookups, bounds, looked_up):
                out[:] = lookup(b)
            return looked_up
    else:  # a lookup in the sparse prefix costs about 100 times this one
        prefix = np.empty((rows, n + 1))
        prefix[:, 0] = 0.0
        np.cumsum(x, axis=1, dtype=np.float64, out=prefix[:, 1:])
        offsets = np.arange(0, prefix.size, n + 1)[:, None]

        def prefix_at(bounds):
            return prefix.take(bounds + offsets)
    # cell c of row r holds x[r, bounds[r, c]:bounds[r, c + 1]]; the inner
    # bounds are the cuts, and starts turns them into indices of the flat x
    flat, starts = x.reshape(-1), np.arange(0, x.size, n)[:, None]
    bounds = np.empty((rows, centroids.shape[1] + 1), dtype=np.intp)
    bounds[:, 0], bounds[:, -1] = 0, n
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    moved = range(rows)  # the rows whose centroids the last step changed
    for _ in range(_MAX_ITERS):
        keys = _cut_keys(cell_bounds(centroids), x.dtype, "right")  # search_sorted's keys
        for r in moved:
            bounds[r, 1:-1] = x[r].searchsorted(keys[r], side="right")
        sizes = hi - lo
        sums = prefix_at(bounds)
        means = sums[:, 1:] - sums[:, :-1]
        means /= np.maximum(sizes, 1)
        # a prefix-sum difference can round past the cell's own values;
        # clipping keeps the centroids sorted.  The clip bounds differ from
        # x[r, lo] and x[r, hi - 1] only in empty cells, which keep their centroid.
        at = bounds + starts
        np.maximum(means, flat.take(at[:, :-1], mode="clip"), out=means)
        at -= 1
        np.minimum(means, flat.take(at[:, 1:], mode="clip"), out=means)
        updated = np.where(sizes > 0, means, centroids)
        changed = (updated != centroids).any(axis=1)
        moved = changed.nonzero()[0].tolist()
        if not moved:
            break
        np.copyto(centroids, updated, where=changed[:, None])
    return [c[:kr] for c, kr in zip(centroids, ks)]


def assign(centroids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Label each value with the index of its nearest centroid; centroids
    must be ascending.  A value exactly midway between two centroids gets
    the lower index.  Float32 values are searched in float32, against the
    midpoints cut as ``search_sorted`` cuts them: x > key exactly where x
    is above the midpoint, so no float64 copy of the values is made."""
    x = np.asarray(values)
    keys = cell_bounds(centroids)
    if x.dtype == np.float32:
        keys = _cut_keys(keys, x.dtype, "right")
    return np.searchsorted(keys, x, side="left")


def cell_histograms(x: np.ndarray, centroids: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The k x bins counts of the sorted 1-d x's values per (cell of
    ``centroids``, bin of ``edges``), read off x: cell c holds
    x[cells[c]:cells[c + 1]], and bin b, under np.histogram's rule,
    x[starts[b]:starts[b + 1]].  So the counts are ``np.bincount(assign(
    centroids, x) * bins + entropy.bin_index(edges, x))``, with no label."""
    cells = np.concatenate(([0], search_sorted(x, cell_bounds(centroids), "right"), [x.size]))
    starts = np.concatenate(([0], search_sorted(x, edges[1:-1], "left"), [x.size]))
    hist = np.minimum.outer(cells[1:], starts[1:]) - np.maximum.outer(cells[:-1], starts[:-1])
    return np.maximum(hist, 0, out=hist)


def cell_counts(centroids: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """Per cube in ``parts``, the row ``np.bincount(assign(centroids, cube),
    minlength=k)``, without a label.  A part's first three axes are one cube
    and any further axes list its cubes; it is copied once in its own floating
    dtype, one cube per row, and every row is sorted and cut at the midpoints."""
    counts = []
    for p in parts:
        x = flat_copy([p]).reshape(-1, np.prod(p.shape[:3]))
        x.sort(axis=1)
        cuts = _cut_keys(cell_bounds(centroids), x.dtype, "right")  # search_sorted's keys
        ends = [row.searchsorted(cuts, side="right") for row in x]
        counts.append(np.diff(ends, prepend=0, append=x.shape[1], axis=1))
    # stacked after the loop: a counts array made first cost 0.4 MB of peak RSS
    return np.concatenate(counts)
