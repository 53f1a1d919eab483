"""Point- and hypercube-selection strategies and the two-phase pipeline.

Phase 1 picks hypercubes, uniformly at random or by entropy: one k-means
fit on the cluster variable pooled over all cubes, each cube's counts per
cell (``clustering.cell_counts``), each cube's node strength in the
pairwise-KL graph in closed form, then a draw of cubes without replacement
weighted by node strength.  Phase 2 samples points within each selected
cube with one of: full, random, stratified, lhs, uips, maxent; maxent runs
the same one-dimensional k-means on the cube's own cluster-variable
values.  It keeps the k x k KL matrix: ``allocate_counts`` splits by its
strengths, and where two of them tie exactly, the closed form's last bits
can break the tie the other way.

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
    ConfigError, GridDataset, HypercubeBlock, RunConfig, cube_layers, flat_copy, num_blocks,
    partition_hypercubes, release_pages, role_vars,
)

_PHASE1_TAG = 0x51C1E
# rows per formatting call in SampleSet.to_csv; bounds the Python cell
# list and the formatted string held at once, and each block builds its
# own coordinate string tables, so the writer's extra memory is O(block)
_CSV_BLOCK_ROWS = 4096
# format of the coordinate columns t, i, j, k, x, y, z
_COORD_SPECS = ("%d",) * 4 + ("%.17g",) * 3


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
        t,i,j,k and ``%.17g`` for every other column.

        The coordinate columns t..z repeat few values, so each block
        formats each distinct bit pattern of a column once (bits, not
        values, so -0.0 and 0.0 stay apart) and fills its ``%s`` slots
        from that table."""
        n_coord = len(_COORD_SPECS)
        row = ",".join(["%s"] * n_coord + ["%.17g"] * (len(self.columns) - n_coord)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                block = self.data[start:start + _CSV_BLOCK_ROWS]
                cells = np.empty(block.shape, dtype=object)
                for c, spec in enumerate(_COORD_SPECS):
                    bits, inverse = np.unique(block[:, c].view(np.uint64), return_inverse=True)
                    table = np.array([spec % v for v in bits.view(np.float64).tolist()], dtype=object)
                    cells[:, c] = table[inverse]
                cells[:, n_coord:] = block[:, n_coord:]
                fh.write((row * len(block)) % tuple(cells.ravel().tolist()))


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
    # one float64 copy of every cube's values, which the fit sorts in place;
    # the copy and the counts each release the cubes' pages once read
    pooled = flat_copy(parts, np.float64)
    release_pages(parts)
    centroids = clustering.kmeans_fit(pooled, num_clusters, seed=int(rng.integers(2**63)),
                                      overwrite_input=True)
    del pooled  # not held while the counts read the cubes again
    counts = clustering.cell_counts(centroids, parts)
    release_pages(parts)
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
    lo = np.array([f.min() for f in feats])
    hi = np.array([f.max() for f in feats])
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
    num_bins: int = 100,
) -> np.ndarray:
    """Entropy-allocated point selection within one cube.

    Cluster the cube's cluster-variable values, histogram each cluster's
    members over shared value bins, build the pairwise-KL graph over the
    cluster histograms, allocate the sample budget across clusters by
    node strength (capped at cluster size), then sample uniformly
    without replacement inside each cluster.
    """
    if n > block.volume:
        raise ValueError(f"cannot sample {n} of {block.volume} points")
    rng = np.random.default_rng(seed)
    values = block.flat_values(cluster_var)
    centroids = clustering.kmeans_fit(values, num_clusters, seed=int(rng.integers(2**63)))
    labels = clustering.assign(centroids, values)
    k = centroids.size

    bins = entropy.bin_index(entropy.bin_edges(values, num_bins), values)
    hist = np.bincount(labels * num_bins + bins, minlength=k * num_bins).reshape(k, num_bins)
    sizes = hist.sum(axis=1)
    graph = entropy.adjacency_matrix(hist / np.maximum(sizes, 1)[:, None])

    strengths = graph.strengths
    if strengths.sum() == 0.0:
        warnings.warn(
            "all node strengths zero; allocating samples uniformly", stacklevel=2
        )
    counts = entropy.allocate_counts(strengths, n, capacities=sizes)
    # each cluster's members in ascending index order; numpy radix-sorts
    # labels cast to the smallest unsigned type that holds k - 1
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    members = np.split(order, np.cumsum(sizes)[:-1])
    chosen = [
        rng.choice(members[c], size=int(counts[c]), replace=False)
        for c in range(k) if counts[c]
    ]
    return np.sort(np.concatenate(chosen)).astype(np.int64)


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


def _sample_cube(config: RunConfig, dataset: GridDataset, work: list[HypercubeBlock],
                 item: int) -> np.ndarray:
    """Phase 2 work unit: the rows sampled from the item-th selected cube."""
    block = work[item]
    rng = cube_rng(config.seed, block.timestep, block.index)
    method, n = config.method, config.num_samples
    if method == "full":
        flat_idx = sample_full(block)
    elif method == "random":
        flat_idx = sample_random(block, n, rng)
    elif method == "stratified":
        flat_idx = sample_stratified(block, n, tuple(config.strata), rng)
    elif method == "lhs":
        flat_idx = sample_lhs(block, n, rng)
    elif method == "uips":
        flat_idx = sample_uips(block, n, config.uips_bins, list(config.input_vars), rng)
    else:  # maxent, the last of RunConfig's VALID_METHODS
        flat_idx = sample_maxent_points(block, config.cluster_var, config.num_clusters, n, rng)
    names = role_vars(dataset)
    local = np.unravel_index(flat_idx, block.extents, order="F")
    rows = np.empty((flat_idx.size, 7 + len(names)))
    rows[:, 0] = dataset.timestep_ids[block.timestep]
    for axis, (idx, origin, size) in enumerate(zip(local, block.origin, dataset.dims.shape[1:])):
        rows[:, 1 + axis] = idx + origin
        rows[:, 4 + axis] = rows[:, 1 + axis] / max(size - 1, 1)
    # gathered from the cube's view in the field's dtype; the rows widen it
    for col, var in enumerate(names):
        rows[:, 7 + col] = block.values[var][local]
    release_pages(list(block.values.values()))  # every read of the cube is done
    return rows


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


def select_cubes(config: RunConfig, dataset: GridDataset) -> list[HypercubeBlock]:
    """Phase 1: the blocks of the cubes selected at each timestep in use, in
    (timestep, cube index) order.  The draw depends on ``config.seed``, not on the method."""
    m, extents = config.num_hypercubes, config.cube_extents
    work: list[HypercubeBlock] = []
    for ts in dataset.positions(config.timesteps):
        phase1_rng = cube_rng(config.seed, ts, _PHASE1_TAG)
        if config.hypercubes == "maxent":
            layers = cube_layers(dataset.fields[config.cluster_var, ts], extents)
            selected = select_cubes_maxent(layers, config.num_clusters, m, phase1_rng)
        else:
            selected = select_hypercubes_random(range(num_blocks(dataset.dims, extents)), m,
                                                phase1_rng)
        work.extend(partition_hypercubes(dataset, extents, ts, np.sort(selected)))
    return work


def sample_cubes(config: RunConfig, dataset: GridDataset, work: list[HypercubeBlock]) -> SampleSet:
    """Phase 2: a pool of ``config.workers`` samples every selected cube with
    ``config.method``.  Output is invariant to worker count and cube
    processing order; the merge is an ordered concatenation by (timestep,
    cube index)."""
    from .bench import parallel_map

    t0 = time.perf_counter()
    sample_cube = partial(_sample_cube, config, dataset, work)
    pieces = parallel_map(sample_cube, list(range(len(work))), config.workers)
    phase2_seconds = time.perf_counter() - t0

    sizes = [rows.shape[0] for rows in pieces]
    cube_ranges = [
        [dataset.timestep_ids[b.timestep], b.index, int(end - size), int(end)]
        for b, size, end in zip(work, sizes, np.cumsum(sizes))
    ]
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
    return SampleSet(columns=columns, data=np.concatenate(pieces), provenance=provenance)


def run_pipeline(
    config: RunConfig, dataset: GridDataset, workers: int | None = None
) -> SampleSet:
    """check_run, then partition, Phase-1 cube selection, Phase-2 point
    sampling, merge.  ``workers``, if given, replaces ``config.workers``."""
    if workers is not None:
        config = replace(config, workers=workers)
    check_run(config, dataset, [config.method])
    t0 = time.perf_counter()
    work = select_cubes(config, dataset)
    phase1 = time.perf_counter() - t0
    sample = sample_cubes(config, dataset, work)
    sample.provenance["phase_seconds"] = {"phase1": phase1, **sample.provenance["phase_seconds"]}
    return sample
