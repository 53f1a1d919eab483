"""Point- and hypercube-selection strategies and the two-phase pipeline.

Phase 1 picks hypercubes, uniformly at random or by entropy: one k-means
fit on the cluster variable pooled over all cubes, each cube's counts per
cell (``clustering.cell_counts``), each cube's node strength in the
pairwise-KL graph in closed form, then a draw of cubes without replacement
weighted by node strength; it yields each timestep's selected cube
indices.  Phase 2 samples points within each selected cube with one of:
full, random, stratified, lhs, uips, maxent; maxent runs the same
one-dimensional k-means on the cube's own cluster-variable values, for
all of a work unit's cubes in one batch (``sample_maxent_blocks``), and
reads each cube's cluster x value-bin histogram off its sorted values.
It keeps the k x k KL matrix: ``allocate_counts`` splits by its
strengths, and where two of them tie exactly, the closed form's last bits
can break the tie the other way.  A Phase 2 work unit builds the blocks
of its own cubes, so only indices cross a pool.

Every per-cube random stream is seeded from (run seed, time-axis
position, cube index), so output is bit-identical regardless of worker
count or cube processing order.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import clustering, entropy
from .grid import (
    ConfigError, GridDataset, HypercubeBlock, RunConfig, block_counts, cube_layers, flat_copy,
    num_blocks, partition_hypercubes, release_pages, role_vars,
)

_PHASE1_TAG = 0x51C1E
# shared value bins of each cluster's histogram in sample_maxent_points
_MAXENT_BINS = 100
# rows per csvtext.format_block call in SampleSet.to_csv; bounds the slot
# arrays and the text held at once, so the writer's extra memory is O(block)
_CSV_BLOCK_ROWS = 4096


@dataclass
class SampleSet:
    """Curated output as a columnar table plus provenance.

    ``columns`` is ``["t", "i", "j", "k", "x", "y", "z", <vars...>]`` and
    ``data`` holds one row per curated point.  Timings and worker counts
    live in provenance but are excluded from content comparisons.
    """

    columns: list[str]
    data: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.data.shape[0]

    def var_values(self, var: str) -> np.ndarray:
        return self.data[:, self.columns.index(var)]

    def content_digest(self) -> str:
        """Digest of the payload and stable provenance; timings excluded."""
        h = hashlib.sha256()
        h.update(",".join(self.columns).encode())
        h.update(np.ascontiguousarray(self.data).tobytes())
        stable = {
            k: v
            for k, v in self.provenance.items()
            if k not in ("phase_seconds", "workers")
        }
        h.update(json.dumps(stable, sort_keys=True, default=str).encode())
        return h.hexdigest()

    def to_csv(self, path) -> None:
        """Write the payload with byte-stable formatting: ``%d`` for
        t,i,j,k and ``%.17g`` for every other column, as CPython prints
        them.  ``csvtext.format_block`` formats each block of rows in numpy:
        the 17 digits of a value come from Dekker's exact product, and a
        row holding a value it cannot prove those digits for (an exponent
        outside [-6, 16], inf, NaN, an integer of 10^10 or more) is printed
        with the ``%`` row template instead."""
        from .csvtext import format_block  # here, so that a run imports it after its peak

        with open(path, "wb") as fh:
            fh.write((",".join(self.columns) + "\n").encode())
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                fh.write(format_block(self.data[start:start + _CSV_BLOCK_ROWS], int_columns=4))


def rate_to_count(rate: float, volume: int) -> int:
    """Samples-per-cube for a sampling rate, rounded half up
    (0.1 on a 32^3 cube gives 3277)."""
    return int(np.floor(rate * volume + 0.5))


def cube_rng(seed: int, timestep: int, cube_index: int) -> np.random.Generator:
    """Stable per-cube stream; independent of execution order and workers."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(timestep), int(cube_index)])
    )


# ---------------------------------------------------------------------------
# Phase 1: hypercube selection


def select_hypercubes_random(cubes, m: int, seed: int | np.random.Generator) -> np.ndarray:
    """Uniform sample of m indices of ``cubes`` without replacement; only
    its length is read, so a ``range`` of the cube count serves."""
    if m > len(cubes):
        raise ValueError(f"cannot select {m} of {len(cubes)} blocks")
    rng = np.random.default_rng(seed)
    return rng.choice(len(cubes), size=m, replace=False)


def select_cubes_maxent(
    parts: list[np.ndarray], num_clusters: int, m: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Entropy-weighted selection of m cubes without replacement, indexed in
    the order ``parts`` lists them: a part's first three axes are one cube,
    and any further axes list its cubes (``grid.cube_layers``).

    Clustering is global: one k-means model on the values pooled across
    all cubes, so every per-cube distribution lives on the same label
    space.  A cube's weight is its ``entropy.node_strengths``; no label
    array or n x n matrix is built.
    """
    cubes = sum(np.prod(p.shape[3:], dtype=int) for p in parts)
    if m > cubes:
        raise ValueError(f"cannot select {m} of {cubes} blocks")
    rng = np.random.default_rng(seed)
    # one copy of every cube's values in their own dtype, which the fit sorts in
    # place; the copy and the counts release each z-layer's pages once they read it
    pooled = flat_copy(parts)
    centroids = clustering.kmeans_fit(pooled, num_clusters, seed=int(rng.integers(2**63)),
                                      overwrite_input=True)
    del pooled  # not held while the counts read the cubes again
    counts = clustering.cell_counts(centroids, parts)
    strengths = entropy.node_strengths(counts / counts.sum(axis=1, keepdims=True))
    return entropy.weighted_sample(strengths, m, seed=rng)


def select_hypercubes_maxent(blocks: list[HypercubeBlock], cluster_var: str, num_clusters: int,
                             m: int, seed: int | np.random.Generator) -> np.ndarray:
    """``select_cubes_maxent`` of each block's cluster-variable view."""
    return select_cubes_maxent([b.values[cluster_var] for b in blocks], num_clusters, m, seed)


# ---------------------------------------------------------------------------
# Phase 2: point sampling within a cube.  Each sampler returns x-fastest
# flat indices into the block; record assembly happens in the pipeline.


def sample_full(block: HypercubeBlock) -> np.ndarray:
    """Every grid point of the block in deterministic x-fastest order."""
    return np.arange(block.volume, dtype=np.int64)


def sample_random(
    block: HypercubeBlock, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Uniform sample without replacement over the block's grid points."""
    if n > block.volume:
        raise ValueError(f"cannot sample {n} of {block.volume} points")
    rng = np.random.default_rng(seed)
    return rng.choice(block.volume, size=n, replace=False).astype(np.int64)


def sample_stratified(
    block: HypercubeBlock,
    n: int,
    strata: tuple[int, int, int],
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Partition the block into spatial strata, allocate n across them by
    largest remainder on stratum volume, sample uniformly within each."""
    gx, gy, gz = strata
    n_strata = gx * gy * gz
    if n < n_strata:
        raise ValueError(f"n={n} below stratum count {n_strata}")
    if n > block.volume:
        raise ValueError(f"cannot sample {n} of {block.volume} points")
    sx, sy, sz = block.extents
    if gx > sx or gy > sy or gz > sz:
        raise ValueError(f"strata {strata} exceed block extents {block.extents}")
    rng = np.random.default_rng(seed)

    # each stratum is a box of the block; slicing its box out of the grid
    # of flat indices and raveling x-fastest lists its points in order
    flat_grid = np.arange(block.volume, dtype=np.int64).reshape(block.extents, order="F")
    x_splits, y_splits, z_splits = _splits(sx, gx), _splits(sy, gy), _splits(sz, gz)
    boxes = [(xs, ys, zs) for zs in z_splits for ys in y_splits for xs in x_splits]
    volumes = np.array([flat_grid[box].size for box in boxes])
    counts = entropy.allocate_counts(volumes.astype(float), n, capacities=volumes)

    chosen = []
    for box, c in zip(boxes, counts):
        if c == 0:
            continue
        flat = flat_grid[box].ravel(order="F")
        chosen.append(rng.choice(flat, size=int(c), replace=False))
    return np.sort(np.concatenate(chosen)).astype(np.int64)


def _splits(size: int, parts: int) -> list[slice]:
    """np.array_split's pieces of range(size), as slices."""
    return [slice(int(p[0]), int(p[-1]) + 1) for p in np.array_split(np.arange(size), parts)]


def lhs_design(n: int, rng: np.random.Generator) -> np.ndarray:
    """n-point Latin hypercube in [0, 1)^3: each axis is divided into n
    intervals holding exactly one coordinate, paired by random permutation."""
    coords = np.empty((n, 3))
    for axis in range(3):
        perm = rng.permutation(n)
        coords[:, axis] = (perm + rng.uniform(size=n)) / n
    return coords


def sample_lhs(
    block: HypercubeBlock, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Latin hypercube sample snapped to unused grid points.

    An n-point LHS design is drawn in normalized [0, 1)^3, then each
    design point is snapped to the nearest grid point, resolving
    collisions to the nearest unused neighbor.
    """
    if n > block.volume:
        raise ValueError(f"cannot sample {n} of {block.volume} points")
    rng = np.random.default_rng(seed)
    coords = lhs_design(n, rng)

    sx, sy, sz = block.extents
    # nearest grid point to each design coordinate, as an x-fastest flat index
    snapped = np.rint(coords * (np.array(block.extents) - 1)).astype(np.int64)
    out = snapped[:, 0] + sx * (snapped[:, 1] + sy * snapped[:, 2])
    rows = np.arange(n)
    # Rows are placed in row order.  owner[c] is the earliest row placed on
    # or snapped to cell c (n if none), so at row r cell c is taken iff
    # owner[c] < r, and only rows that find their snapped cell taken move.
    owner = np.full(block.volume, n, dtype=np.int64)
    np.minimum.at(owner, out, rows)
    pending = np.flatnonzero(owner[out] < rows).tolist()  # sorted, so a heap
    while pending:
        r = heapq.heappop(pending)
        cell = _nearest_free_cell(owner, r, snapped[r].tolist(), block.extents)
        if owner[cell] < n:
            # the later row that snapped to this cell now finds it taken
            heapq.heappush(pending, int(owner[cell]))
        owner[cell] = r
        out[r] = cell
    return out


# radius-1 neighbour offsets in _nearest_free's order: d^2, then x, y, z
_NEIGHBOURS = sorted(
    ((dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) != (0, 0, 0)),
    key=lambda o: (o[0] ** 2 + o[1] ** 2 + o[2] ** 2, *o),
)


def _nearest_free_cell(
    owner: np.ndarray, r: int, center: list[int], extents: tuple[int, int, int]
) -> int:
    """Flat index of the cell _nearest_free picks for row r, where the
    cells taken at row r are those with owner < r."""
    sx, sy, sz = extents
    ci, cj, ck = center
    # every radius-1 neighbour has d^2 <= 3 < (1 + 1)^2, so _nearest_free
    # returns the first free one in its tie order
    for dx, dy, dz in _NEIGHBOURS:
        i, j, k = ci + dx, cj + dy, ck + dz
        if 0 <= i < sx and 0 <= j < sy and 0 <= k < sz:
            cell = i + sx * (j + sy * k)
            if owner[cell] >= r:
                return cell
    taken = (owner < r).reshape(extents, order="F")
    i, j, k = _nearest_free(taken, (ci, cj, ck))
    return i + sx * (j + sy * k)


def _nearest_free(taken: np.ndarray, center: tuple[int, int, int]) -> tuple[int, int, int]:
    """The free grid point nearest to center.

    Ties in squared distance d^2 break to the smallest x, then y, then z.
    The search scans cubes of growing radius around center and stops at
    the first radius whose best free point has d^2 < (radius + 1)^2:
    anything outside the scanned cube is at least radius + 1 away, so at
    d^2 = (radius + 1)^2 a point outside may tie and win on x, y, z.
    Each cube contains the last, so its best replaces the last one's.
    """
    sx, sy, sz = taken.shape
    ci, cj, ck = center
    best = None
    for radius in range(1, max(sx, sy, sz)):
        ilo, ihi = max(ci - radius, 0), min(ci + radius, sx - 1)
        jlo, jhi = max(cj - radius, 0), min(cj + radius, sy - 1)
        klo, khi = max(ck - radius, 0), min(ck + radius, sz - 1)
        sub = taken[ilo:ihi + 1, jlo:jhi + 1, klo:khi + 1]
        free = np.argwhere(~sub)
        if free.size:
            pts = free + np.array([ilo, jlo, klo])
            d2 = np.sum((pts - np.array(center)) ** 2, axis=1)
            first = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], d2))[0]
            best = pts[first]
            if d2[first] < (radius + 1) ** 2:
                break
    if best is None:
        raise ValueError("no free grid point left")
    return int(best[0]), int(best[1]), int(best[2])


def sample_uips(
    block: HypercubeBlock,
    n: int,
    bins_per_dim: int,
    feature_vars: list[str],
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Uniform-in-phase-space sampling via binned density estimation.

    Each point is accepted with probability min(1, c / density), where
    density comes from a per-bin histogram of the feature space and c is
    bisected so the expected accepted count equals n.  The accepted set
    is then adjusted (uniform down-sample or top-up from the rejected
    pool) to exactly n points.
    """
    if n > block.volume:
        raise ValueError(f"cannot sample {n} of {block.volume} points")
    if not 1 <= len(feature_vars) <= 4:
        raise ValueError("uips supports 1 to 4 feature variables")
    rng = np.random.default_rng(seed)
    feats = [block.flat_values(v) for v in feature_vars]
    lo, hi = np.array([(f.min(), f.max()) for f in feats], dtype=np.float64).T  # as widened
    if np.any(hi <= lo):
        degenerate = [v for v, l, h in zip(feature_vars, lo, hi) if h <= l]
        warnings.warn(
            f"degenerate feature range for {degenerate}; falling back to random sampling",
            stacklevel=2,
        )
        return sample_random(block, n, rng)

    # each point's phase-space cell: its per-axis bins, raveled into one index
    cell = np.ravel_multi_index(
        [entropy.bin_index(entropy.bin_edges(f, bins_per_dim), f) for f in feats],
        (bins_per_dim,) * len(feats),
    )
    bin_volume = np.prod((hi - lo) / bins_per_dim)
    bin_counts = np.bincount(cell)
    bin_density = bin_counts / (block.volume * bin_volume)
    density = bin_density[cell]
    used = bin_counts > 0
    counts_used, density_used = bin_counts[used].astype(np.float64), bin_density[used]

    # bisect the acceptance constant so that E[accepted] = n
    c_lo, c_hi = 0.0, float(bin_density.max())
    for _ in range(30):
        c = 0.5 * (c_lo + c_hi)
        # E[accepted] summed per bin, not per point: it rounds differently, so
        # near the stopping threshold the per-point sum decides the branch
        expected = float(counts_used @ np.minimum(1.0, c / density_used))
        if abs(abs(expected - n) - 0.01 * n) <= 1e-9 * n:
            expected = float(np.sum(np.minimum(1.0, c / density)))
        if abs(expected - n) <= 0.01 * n:
            break
        if expected < n:
            c_lo = c
        else:
            c_hi = c
    accept_p = np.minimum(1.0, c / density)
    accept = rng.uniform(size=block.volume) < accept_p
    accepted = np.flatnonzero(accept)

    if accepted.size > n:
        accepted = rng.choice(accepted, size=n, replace=False)
    elif accepted.size < n:
        rejected = np.flatnonzero(~accept)
        topup = rng.choice(rejected, size=n - accepted.size, replace=False)
        accepted = np.concatenate([accepted, topup])
    return np.sort(accepted).astype(np.int64)


def sample_maxent_points(
    block: HypercubeBlock,
    cluster_var: str,
    num_clusters: int,
    n: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Entropy-allocated point selection within one cube.

    Cluster the cube's cluster-variable values, histogram each cluster's
    members over shared value bins, build the pairwise-KL graph over the
    cluster histograms, allocate the sample budget across clusters by
    node strength (capped at cluster size), then sample uniformly
    without replacement inside each cluster.  The one-block case of
    ``sample_maxent_blocks``.
    """
    return sample_maxent_blocks([block], cluster_var, num_clusters, n, [seed])[0]


def sample_maxent_blocks(
    blocks: list[HypercubeBlock],
    cluster_var: str,
    num_clusters: int,
    n: int,
    seeds: list,
) -> list[np.ndarray]:
    """``sample_maxent_points`` of each of ``blocks``, cubes of one extent,
    block b from ``seeds[b]``'s stream.  The cubes' values are the rows of one
    array, fitted in one batch (``clustering.kmeans_fit_rows``); each cube's
    histograms are read off its sorted row, and its graph, allocation, labels
    and draws follow in cube order."""
    volume = blocks[0].volume
    if n > volume:
        raise ValueError(f"cannot sample {n} of {volume} points")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x = np.stack([block.flat_values(cluster_var) for block in blocks])
    fits = clustering.kmeans_fit_rows(x, num_clusters, [int(rng.integers(2**63)) for rng in rngs])
    picks = []
    for block, row, centroids, rng in zip(blocks, x, fits, rngs):
        k = centroids.size
        edges = entropy.bin_edges(row[[0, -1]], _MAXENT_BINS)  # the sorted row's min and max
        hist = clustering.cell_histograms(row, centroids, edges)
        sizes = hist.sum(axis=1)
        graph = entropy.adjacency_matrix(hist / np.maximum(sizes, 1)[:, None])
        strengths = graph.strengths
        if strengths.sum() == 0.0:
            warnings.warn(
                "all node strengths zero; allocating samples uniformly", stacklevel=2
            )
        counts = entropy.allocate_counts(strengths, n, capacities=sizes)
        labels = clustering.assign(centroids, block.flat_values(cluster_var))
        # each cluster's members in ascending index order; numpy radix-sorts
        # labels cast to the smallest unsigned type that holds k - 1
        order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
        ends = np.cumsum(sizes)
        chosen = [
            rng.choice(order[ends[c] - sizes[c]:ends[c]], size=int(counts[c]), replace=False)
            for c in range(k) if counts[c]
        ]
        picks.append(np.sort(np.concatenate(chosen)).astype(np.int64))
    return picks


# ---------------------------------------------------------------------------
# Temporal selection


def temporal_select(snapshot_pdfs: np.ndarray, budget: int) -> list[int]:
    """Greedy novelty-first selection of snapshot indices.

    Starts from the snapshot of maximal self-entropy, then repeatedly
    adds the snapshot with the largest KL divergence against the mixture
    (mean) of the already-selected histograms.  Ties break to the lowest
    index.
    """
    pdfs = np.asarray(snapshot_pdfs, dtype=np.float64)
    T = pdfs.shape[0]
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if budget > T:
        raise ValueError(f"budget {budget} exceeds snapshot count {T}")
    S = entropy.smooth(pdfs)
    entropies = -np.sum(S * np.log(S), axis=1)
    selected = [int(np.argmax(entropies))]
    while len(selected) < budget:
        mixture = entropy.smooth(pdfs[selected].mean(axis=0))
        # gains[t] equals kl_divergence(pdfs[t], pdfs[selected].mean(axis=0))
        # bit for bit, as adjacency_matrix's rows do
        gains = entropy.kl_rows(S, mixture)
        gains[selected] = -np.inf
        selected.append(int(np.argmax(gains)))
    return selected


# ---------------------------------------------------------------------------
# Pipeline


def _sample_layer(config: RunConfig, dataset: GridDataset,
                  unit: tuple[int, np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Phase 2 work unit: one array of the rows sampled from ``unit``'s cubes,
    one z-layer's at one timestep, and each cube's row count.  After sampling,
    each role field (those the sampler read first) fills its column from its
    z-slab view, which then gives its pages back before the next is read."""
    ts, cubes = unit
    blocks = partition_hypercubes(dataset, config.cube_extents, ts, cubes)
    method, n = config.method, config.num_samples
    rngs = [cube_rng(config.seed, ts, block.index) for block in blocks]
    if method == "maxent":  # the last of RunConfig's VALID_METHODS, all cubes at once
        picks = sample_maxent_blocks(blocks, config.cluster_var, config.num_clusters, n, rngs)
    else:
        picks = []
        for block, rng in zip(blocks, rngs):
            if method == "full":
                flat_idx = sample_full(block)
            elif method == "random":
                flat_idx = sample_random(block, n, rng)
            elif method == "stratified":
                flat_idx = sample_stratified(block, n, tuple(config.strata), rng)
            elif method == "lhs":
                flat_idx = sample_lhs(block, n, rng)
            else:
                flat_idx = sample_uips(block, n, config.uips_bins, list(config.input_vars), rng)
            picks.append(flat_idx)
    sizes = [flat_idx.size for flat_idx in picks]
    local = np.unravel_index(np.concatenate(picks), config.cube_extents, order="F")
    ijk = np.stack(local, axis=1) + np.repeat([b.origin for b in blocks], sizes, axis=0)
    names = role_vars(dataset)
    rows = np.empty((len(ijk), 7 + len(names)))
    rows[:, 0] = dataset.timestep_ids[ts]
    rows[:, 1:4] = ijk
    rows[:, 4:7] = ijk / np.maximum(np.array(dataset.dims.shape[1:]) - 1, 1)
    read = {"maxent": [config.cluster_var], "uips": list(config.input_vars)}.get(method, [])
    k0, sz = blocks[0].origin[2], config.cube_extents[2]
    for var in dict.fromkeys([*read, *names]):
        slab = dataset.fields[var, ts][:, :, k0:k0 + sz]
        rows[:, 7 + names.index(var)] = slab[ijk[:, 0], ijk[:, 1], local[2]]  # widens to float64
        release_pages(slab)
    return rows, sizes


def config_digest(config: RunConfig) -> str:
    """Digest of the config.  The worker count does not change the output,
    so it is hashed as 1, the value behind every recorded digest."""
    return hashlib.sha256(
        json.dumps({**asdict(config), "workers": 1}, sort_keys=True, default=str).encode()
    ).hexdigest()


def check_run(config: RunConfig, dataset: GridDataset, methods: list[str],
              cluster: bool = False) -> None:
    """``config.check_run`` on the dataset's grid, and each variable a run
    of ``methods`` reads by name is a role variable of the dataset, or a
    ConfigError names its key: cluster_var if ``cluster`` or the cubes or
    one of ``methods`` is maxent, every input_vars entry if one is uips."""
    config.check_run(dataset.dims, methods)
    names = role_vars(dataset)
    reads = [("input_vars", v) for v in config.input_vars if "uips" in methods]
    if cluster or "maxent" in (config.hypercubes, *methods):
        reads.append(("cluster_var", config.cluster_var))
    for key, var in reads:
        if var not in names:
            raise ConfigError(f"{key} {var!r} is not a role variable of the dataset {names}")


def select_cubes(config: RunConfig, dataset: GridDataset) -> list[tuple[int, np.ndarray]]:
    """Phase 1: for each timestep position in use, the sorted int64 indices of
    its selected cubes.  The draw depends on ``config.seed``, not on the method."""
    m, extents = config.num_hypercubes, config.cube_extents
    selection = []
    for ts in dataset.positions(config.timesteps):
        phase1_rng = cube_rng(config.seed, ts, _PHASE1_TAG)
        if config.hypercubes == "maxent":
            layers = cube_layers(dataset.fields[config.cluster_var, ts], extents)
            selected = select_cubes_maxent(layers, config.num_clusters, m, phase1_rng)
        else:
            selected = select_hypercubes_random(range(num_blocks(dataset.dims, extents)), m,
                                                phase1_rng)
        selection.append((ts, np.sort(selected)))
    return selection


def sample_cubes(config: RunConfig, dataset: GridDataset,
                 selection: list[tuple[int, np.ndarray]]) -> SampleSet:
    """Phase 2: a pool of ``config.workers`` samples every cube of ``selection``
    (``select_cubes``'s) with ``config.method``, one unit per (timestep,
    z-layer) of selected cubes.  Output is invariant to worker count and unit
    order; the merge is an ordered concatenation by (timestep, cube index)."""
    from .bench import parallel_map

    t0 = time.perf_counter()
    bx, by, _ = block_counts(dataset.dims, config.cube_extents)
    units = [(ts, layer) for ts, cubes in selection
             for layer in np.split(cubes, np.flatnonzero(np.diff(cubes // (bx * by))) + 1)]
    rows, sizes = zip(*parallel_map(partial(_sample_layer, config, dataset), units, config.workers))
    phase2_seconds = time.perf_counter() - t0

    ends = np.cumsum([size for unit in sizes for size in unit]).tolist()
    cubes = [(dataset.timestep_ids[ts], int(c)) for ts, layer in units for c in layer]
    cube_ranges = [[t, c, start, end] for (t, c), start, end in zip(cubes, [0, *ends], ends)]
    columns = ["t", "i", "j", "k", "x", "y", "z", *role_vars(dataset)]
    provenance = {
        "method": config.method,
        "hypercube_method": config.hypercubes,
        "seed": config.seed,
        "config_sha256": config_digest(config),
        "grid_dims": {
            "nx": dataset.dims.nx, "ny": dataset.dims.ny,
            "nz": dataset.dims.nz, "nt": dataset.dims.nt,
        },
        "cube_ranges": cube_ranges,
        "phase_seconds": {"phase2": phase2_seconds},
        "workers": config.workers,
    }
    return SampleSet(columns=columns, data=np.concatenate(rows), provenance=provenance)


def run_pipeline(
    config: RunConfig, dataset: GridDataset, workers: int | None = None
) -> SampleSet:
    """check_run, then partition, Phase-1 cube selection, Phase-2 point
    sampling, merge.  ``workers``, if given, replaces ``config.workers``."""
    if workers is not None:
        config = replace(config, workers=workers)
    check_run(config, dataset, [config.method])
    t0 = time.perf_counter()
    selection = select_cubes(config, dataset)
    phase1 = time.perf_counter() - t0
    sample = sample_cubes(config, dataset, selection)
    sample.provenance["phase_seconds"] = {"phase1": phase1, **sample.provenance["phase_seconds"]}
    return sample
