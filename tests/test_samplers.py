import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curator import bench, clustering, entropy, grid
from curator.clustering import assign, kmeans_fit
from curator.entropy import adjacency_matrix, allocate_counts, kl_divergence, weighted_sample
from curator.grid import (
    ConfigError, GridDataset, GridDims, RunConfig, extract_block, load_dataset, num_blocks,
    parse_config, partition_hypercubes,
)
from curator.metrics import compare_methods
from curator.samplers import (
    _PHASE1_TAG,
    SampleSet,
    _nearest_free,
    cube_rng,
    lhs_design,
    rate_to_count,
    run_pipeline,
    sample_full,
    sample_lhs,
    sample_maxent_points,
    sample_random,
    sample_stratified,
    sample_uips,
    select_cubes,
    select_hypercubes_maxent,
    select_hypercubes_random,
    temporal_select,
)
from curator.synthetic import dataset_config, gen_taylor_green, save_dataset


def make_dataset(nx=8, ny=8, nz=8, nt=1, seed=0, extra=None):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(nt, nx, ny, nz))
    fields = {("u", t): u[t] for t in range(nt)}
    if extra:
        fields.update(extra)
    return GridDataset(
        dims=GridDims(nx=nx, ny=ny, nz=nz, nt=nt, dims=3),
        fields=fields,
        input_vars=["u"],
        output_vars=["u"],
        cluster_var="u",
    )


def make_block(nx=8, seed=0, values=None):
    if values is not None:
        ds = make_dataset(nx, nx, nx)
        ds.fields["u", 0][...] = values
    else:
        ds = make_dataset(nx, nx, nx, seed=seed)
    return extract_block(ds, (0, 0, 0), (nx, nx, nx), 0)


def base_config(**kw):
    defaults = dict(
        nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
        nxsl=4, nysl=4, nzsl=4, num_hypercubes=4, method="random",
        num_samples=16, strata=[2, 2, 2], seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRateToCount:
    def test_tenth_of_32768(self):
        assert rate_to_count(0.1, 32768) == 3277

    def test_round_half_up(self):
        assert rate_to_count(0.25, 10) == 3
        assert rate_to_count(0.5, 10) == 5

    def test_extremes(self):
        assert rate_to_count(0.0, 100) == 0
        assert rate_to_count(1.0, 100) == 100


class TestCubeRng:
    def test_same_key_same_stream(self):
        a = cube_rng(7, 2, 13).uniform(size=5)
        b = cube_rng(7, 2, 13).uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = cube_rng(7, 2, 13).uniform(size=5)
        for key in [(8, 2, 13), (7, 3, 13), (7, 2, 14)]:
            assert not np.array_equal(cube_rng(*key).uniform(size=5), base)


def all_blocks(ds, extents, timestep=0):
    """Every block of a timestep's partition, in partition order."""
    return partition_hypercubes(ds, extents, timestep, range(num_blocks(ds.dims, extents)))


def ref_select_hypercubes_maxent(blocks, cluster_var, k, m, seed):
    """select_hypercubes_maxent as a per-block loop: one fit on the pooled
    values, each cube's labels counted, the strengths from the full matrix."""
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([b.flat_values(cluster_var) for b in blocks])
    centroids = kmeans_fit(pooled, k, seed=int(rng.integers(2**63)))
    dists = [
        np.bincount(assign(centroids, b.flat_values(cluster_var)), minlength=centroids.size)
        / b.volume
        for b in blocks
    ]
    return weighted_sample(adjacency_matrix(dists).strengths, m, seed=rng)


class TestHypercubeSelection:
    def test_random_without_replacement(self):
        blocks = [make_block(2, seed=s) for s in range(10)]
        sel = select_hypercubes_random(blocks, 6, seed=0)
        assert len(sel) == 6 and len(set(sel.tolist())) == 6
        assert all(0 <= c < 10 for c in sel)

    def test_random_too_many(self):
        blocks = [make_block(2)]
        with pytest.raises(ValueError, match="cannot select"):
            select_hypercubes_random(blocks, 2, seed=0)

    def test_maxent_deterministic(self):
        blocks = [make_block(4, seed=s) for s in range(6)]
        a = select_hypercubes_maxent(blocks, "u", 4, 3, seed=5)
        b = select_hypercubes_maxent(blocks, "u", 4, 3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_maxent_prefers_divergent_cube(self):
        # nine near-identical cubes plus one whose distribution is far
        # away: the outlier's node strength dominates, so its selection
        # rate should far exceed the uniform 1-in-10 baseline
        rng = np.random.default_rng(0)
        hits = 0
        trials = 40
        for trial in range(trials):
            blocks = []
            for s in range(9):
                vals = rng.normal(0.0, 1.0, size=(4, 4, 4))
                blocks.append(make_block(4, values=vals))
            blocks.append(make_block(4, values=rng.normal(40.0, 1.0, size=(4, 4, 4))))
            sel = select_hypercubes_maxent(blocks, "u", 8, 1, seed=trial)
            hits += int(sel[0]) == 9
        assert hits / trials > 0.3  # 3x the uniform baseline

    @pytest.mark.parametrize("seed", range(20))
    def test_maxent_matches_per_block_loop(self, seed):
        # blocks of unequal extents; m = len(blocks) records the whole draw order
        ds = make_dataset(8, 8, 8, seed=seed)
        shapes = [((0, 0, 0), (2, 2, 2)), ((2, 0, 0), (4, 2, 2)), ((0, 2, 0), (3, 4, 1)),
                  ((0, 0, 4), (8, 1, 1)), ((4, 4, 4), (4, 4, 4)), ((1, 6, 2), (5, 2, 3))]
        blocks = [extract_block(ds, o, e, 0, i) for i, (o, e) in enumerate(shapes)]
        k, m = 5, len(blocks)
        expected = ref_select_hypercubes_maxent(blocks, "u", k, m, seed)
        got = select_hypercubes_maxent(blocks, "u", k, m, np.random.default_rng(seed))
        assert np.array_equal(got, expected)

    def test_maxent_builds_no_matrix_and_no_labels(self, monkeypatch):
        ds = make_dataset(8, 8, 8, nt=2, seed=3)
        config = base_config(hypercubes="maxent", nxsl=2, nysl=2, nzsl=2,
                             num_hypercubes=10, num_clusters=6, num_samples=4, seed=4)
        expected = []
        for ts in range(2):
            blocks = all_blocks(ds, (2, 2, 2), ts)
            selected = ref_select_hypercubes_maxent(
                blocks, "u", 6, 10, cube_rng(4, ts, _PHASE1_TAG))
            expected += [(ts, blocks[c].index) for c in np.sort(selected)]

        def forbidden(*args, **kwargs):
            raise AssertionError("Phase 1 called a per-point or pairwise kernel")

        monkeypatch.setattr(entropy, "adjacency_matrix", forbidden)
        monkeypatch.setattr(clustering, "assign", forbidden)
        assert [(b.timestep, b.index) for b in select_cubes(config, ds)] == expected

    def test_maxent_memory_does_not_grow_with_cube_pairs(self):
        # 2048 cubes of 2^3 points: the n x n matrix alone would be 32 MiB
        blocks = all_blocks(make_dataset(32, 32, 16, seed=1), (2, 2, 2))
        assert len(blocks) == 2048
        tracemalloc.start()
        try:
            select_hypercubes_maxent(blocks, "u", 20, 16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxent_counts_values_on_midpoints_as_assign_does(self, monkeypatch, dtype):
        # every float32 rounding of these midpoints lies above the midpoint,
        # so counting against narrowed midpoints would move those values down
        c = np.array([-1.0, 0.1, 0.7, 3.0])
        mids = (c[:-1] + c[1:]) / 2
        assert np.all(mids.astype(np.float32) > mids)
        near = [np.nextafter(mids.astype(dtype), d) for d in (-np.inf, np.inf)]
        candidates = np.concatenate([mids.astype(dtype), *near, c.astype(dtype)])
        rng = np.random.default_rng(0)
        ds = make_dataset(4, 4, 4)
        ds.fields["u", 0] = rng.choice(candidates, size=(4, 4, 4)).astype(dtype)
        blocks = all_blocks(ds, (2, 2, 2))
        views = [b.values["u"] for b in blocks]
        assert {v.dtype for v in views} == {np.dtype(dtype)}  # the cubes are not widened
        counts = np.array([np.bincount(assign(c, v.ravel()), minlength=c.size) for v in views])
        assert np.array_equal(clustering.cell_counts(c, views), counts)
        # and Phase 1 weighs the cubes by those counts
        seen = []
        strengths = entropy.node_strengths

        def record(dists):
            seen.append(dists)
            return strengths(dists)

        monkeypatch.setattr(clustering, "kmeans_fit", lambda *args, **kwargs: c)
        monkeypatch.setattr(entropy, "node_strengths", record)
        select_hypercubes_maxent(blocks, "u", c.size, 2, seed=0)
        assert np.array_equal(seen[0], counts / counts.sum(axis=1, keepdims=True))

    def test_maxent_equal_cubes_warn_and_draw_uniformly(self):
        # a cluster field with the cube's period: every cube's distribution
        # is the same, so every strength is zero, as in the matrix
        pattern = np.random.default_rng(2).normal(size=(2, 2, 2))
        blocks = all_blocks(
            make_dataset(8, 8, 8, extra={("u", 0): np.tile(pattern, (4, 4, 4))}), (2, 2, 2))
        with pytest.warns(UserWarning, match="all weights zero"):
            expected = ref_select_hypercubes_maxent(blocks, "u", 4, 5, 6)
        with pytest.warns(UserWarning, match="all weights zero"):
            got = select_hypercubes_maxent(blocks, "u", 4, 5, seed=6)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("hypercubes", ["maxent", "random"])
    def test_a_run_builds_blocks_for_the_selected_cubes_only(self, monkeypatch, hypercubes):
        # 64 cubes per timestep, of which Phase 2 reads 5: only those 5 become blocks
        built = []
        extract = grid.extract_block

        def counting(dataset, origin, extents, timestep, index=0):
            built.append((timestep, index))
            return extract(dataset, origin, extents, timestep, index)

        monkeypatch.setattr(grid, "extract_block", counting)
        config = base_config(hypercubes=hypercubes, nxsl=2, nysl=2, nzsl=2, num_hypercubes=5,
                             num_clusters=4, num_samples=4, seed=4)
        sample = run_pipeline(config, make_dataset(8, 8, 8, nt=2, seed=3))
        assert built == [(t, c) for t, c, _, _ in sample.provenance["cube_ranges"]]
        assert len(built) == 2 * 5

    def test_maxent_too_many(self):
        blocks = [make_block(2, seed=s) for s in range(2)]
        with pytest.raises(ValueError, match="cannot select"):
            select_hypercubes_maxent(blocks, "u", 2, 3, seed=0)


class TestSampleFull:
    def test_all_points_in_order(self):
        block = make_block(4)
        np.testing.assert_array_equal(sample_full(block), np.arange(64))


class TestSampleRandom:
    def test_exact_unique_in_range(self):
        block = make_block(4)
        idx = sample_random(block, 20, seed=1)
        assert idx.size == 20
        assert np.unique(idx).size == 20
        assert idx.min() >= 0 and idx.max() < 64

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_random(make_block(2), 9, seed=0)

    def test_deterministic(self):
        block = make_block(4)
        np.testing.assert_array_equal(
            sample_random(block, 10, seed=3), sample_random(block, 10, seed=3)
        )


class TestSampleStratified:
    def test_one_point_per_octant(self):
        block = make_block(4)
        idx = sample_stratified(block, 8, (2, 2, 2), seed=0)
        assert np.unique(idx).size == 8
        octants = set()
        for f in idx:
            i, j, k = f % 4, (f // 4) % 4, f // 16
            octants.add((i // 2, j // 2, k // 2))
        assert len(octants) == 8  # every stratum hit exactly once

    def test_proportional_allocation(self):
        block = make_block(8)
        idx = sample_stratified(block, 64, (2, 2, 2), seed=1)
        counts = {}
        for f in idx:
            i, j, k = f % 8, (f // 8) % 8, f // 64
            key = (i // 4, j // 4, k // 4)
            counts[key] = counts.get(key, 0) + 1
        assert all(c == 8 for c in counts.values())

    def test_sorted_unique(self):
        block = make_block(8)
        idx = sample_stratified(block, 100, (2, 2, 2), seed=2)
        assert np.all(np.diff(idx) > 0)

    def test_errors(self):
        block = make_block(4)
        with pytest.raises(ValueError, match="below stratum count"):
            sample_stratified(block, 4, (2, 2, 2), seed=0)
        with pytest.raises(ValueError, match="exceed block extents"):
            sample_stratified(block, 40, (8, 2, 2), seed=0)
        with pytest.raises(ValueError, match="cannot sample"):
            sample_stratified(block, 100, (2, 2, 2), seed=0)


class TestLhs:
    def test_design_marginal_property(self):
        # exactly one coordinate per axis interval [m/n, (m+1)/n)
        rng = np.random.default_rng(0)
        n = 17
        coords = lhs_design(n, rng)
        assert coords.shape == (n, 3)
        for axis in range(3):
            cells = np.floor(coords[:, axis] * n).astype(int)
            assert sorted(cells.tolist()) == list(range(n))

    def test_sample_exact_unique(self):
        block = make_block(4)
        idx = sample_lhs(block, 30, seed=0)
        assert idx.size == 30 and np.unique(idx).size == 30
        assert idx.min() >= 0 and idx.max() < 64

    def test_sample_saturated(self):
        # n equal to the volume: collision resolution must place every point
        block = make_block(3)
        idx = sample_lhs(block, 27, seed=5)
        assert sorted(idx.tolist()) == list(range(27))

    def test_spread_beats_clumping(self):
        # every x-plane of the block receives at least one point when
        # n is a multiple of the axis size
        block = make_block(8)
        idx = sample_lhs(block, 64, seed=1)
        assert set((idx % 8).tolist()) == set(range(8))

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_lhs(make_block(2), 9, seed=0)


class TestSampleUips:
    def test_exact_unique_sorted(self):
        block = make_block(8)
        idx = sample_uips(block, 100, 20, ["u"], seed=0)
        assert idx.size == 100 and np.unique(idx).size == 100
        assert np.all(np.diff(idx) > 0)

    def test_flattens_bimodal(self):
        # a density-peaked field: uips should occupy value bins more
        # evenly than uniform-random sampling
        rng = np.random.default_rng(0)
        vals = rng.normal(0.0, 0.05, size=(8, 8, 8))
        vals.ravel()[:64] = rng.uniform(-3.0, 3.0, size=64)
        block = make_block(8, values=vals)
        u = block.flat_values("u")

        def occupancy_cv(idx):
            counts, _ = np.histogram(u[idx], bins=20, range=(u.min(), u.max()))
            return counts.std() / counts.mean()

        cv_uips = occupancy_cv(sample_uips(block, 128, 20, ["u"], seed=1))
        cv_rand = occupancy_cv(sample_random(block, 128, seed=1))
        assert cv_uips < cv_rand

    def test_constant_field_falls_back(self):
        block = make_block(4, values=np.ones((4, 4, 4)))
        with pytest.warns(UserWarning, match="degenerate"):
            idx = sample_uips(block, 10, 20, ["u"], seed=0)
        assert idx.size == 10 and np.unique(idx).size == 10

    def test_feature_count_limits(self):
        block = make_block(4)
        with pytest.raises(ValueError, match="1 to 4"):
            sample_uips(block, 5, 20, [], seed=0)
        with pytest.raises(ValueError, match="1 to 4"):
            sample_uips(block, 5, 20, ["u"] * 5, seed=0)


# ---------------------------------------------------------------------------
# Reference samplers: the per-point and per-cluster implementations that
# sample_lhs, sample_stratified, sample_uips and sample_maxent_points
# replaced.  The fast ones must return the same indices bit for bit.


def ref_nearest_free(taken, center):
    """Every free cell, sorted by squared distance to center, then x, y, z."""
    free = np.argwhere(~taken)
    d2 = np.sum((free - np.array(center)) ** 2, axis=1)
    return tuple(int(c) for c in free[np.lexsort((free[:, 2], free[:, 1], free[:, 0], d2))[0]])


def ref_sample_lhs(block, n, seed):
    """One row at a time: snap, and move to the nearest free cell if taken."""
    rng = np.random.default_rng(seed)
    coords = lhs_design(n, rng)
    sx, sy, sz = block.extents
    snapped = np.rint(coords * (np.array([sx, sy, sz]) - 1)).astype(np.int64)
    taken = np.zeros((sx, sy, sz), dtype=bool)
    out = np.empty(n, dtype=np.int64)
    for r in range(n):
        gi, gj, gk = snapped[r]
        if taken[gi, gj, gk]:
            gi, gj, gk = ref_nearest_free(taken, (gi, gj, gk))
        taken[gi, gj, gk] = True
        out[r] = gi + sx * (gj + sy * gk)
    return out


def ref_sample_stratified(block, n, strata, seed):
    """Each stratum's flat indices built from a meshgrid of its axis ranges."""
    rng = np.random.default_rng(seed)
    gx, gy, gz = strata
    sx, sy, sz = block.extents
    x_splits = np.array_split(np.arange(sx), gx)
    y_splits = np.array_split(np.arange(sy), gy)
    z_splits = np.array_split(np.arange(sz), gz)
    cells = [(xs, ys, zs) for zs in z_splits for ys in y_splits for xs in x_splits]
    volumes = np.array([len(xs) * len(ys) * len(zs) for xs, ys, zs in cells])
    counts = allocate_counts(volumes.astype(float), n, capacities=volumes)
    chosen = []
    for (xs, ys, zs), c in zip(cells, counts):
        if c == 0:
            continue
        ii, jj, kk = np.meshgrid(xs, ys, zs, indexing="ij")
        flat = (ii + sx * (jj + sy * kk)).ravel(order="F")
        chosen.append(rng.choice(flat, size=int(c), replace=False))
    return np.sort(np.concatenate(chosen)).astype(np.int64)


def ref_sample_uips(block, n, bins_per_dim, feature_vars, seed):
    """Tops up from the rejected pool found by setdiff1d."""
    rng = np.random.default_rng(seed)
    feats = np.stack([block.flat_values(v) for v in feature_vars], axis=1)
    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    if np.any(hi <= lo):
        return sample_random(block, n, rng)
    edges = [np.linspace(lo[d], hi[d], bins_per_dim + 1) for d in range(feats.shape[1])]
    hist, _ = np.histogramdd(feats, bins=edges)
    bin_idx = np.stack(
        [
            np.clip(np.searchsorted(edges[d], feats[:, d], side="right") - 1, 0, bins_per_dim - 1)
            for d in range(feats.shape[1])
        ],
        axis=1,
    )
    bin_volume = np.prod((hi - lo) / bins_per_dim)
    density = hist[tuple(bin_idx.T)] / (feats.shape[0] * bin_volume)
    c_lo, c_hi = 0.0, float(density.max())
    for _ in range(30):
        c = 0.5 * (c_lo + c_hi)
        expected = float(np.sum(np.minimum(1.0, c / density)))
        if abs(expected - n) <= 0.01 * n:
            break
        if expected < n:
            c_lo = c
        else:
            c_hi = c
    accept_p = np.minimum(1.0, c / density)
    u = rng.uniform(size=feats.shape[0])
    accepted = np.flatnonzero(u < accept_p)
    if accepted.size > n:
        accepted = rng.choice(accepted, size=n, replace=False)
    elif accepted.size < n:
        rejected = np.setdiff1d(np.arange(feats.shape[0]), accepted, assume_unique=False)
        topup = rng.choice(rejected, size=n - accepted.size, replace=False)
        accepted = np.concatenate([accepted, topup])
    return np.sort(accepted).astype(np.int64)


def ref_sample_maxent_points(block, cluster_var, num_clusters, n, seed, num_bins=100):
    """One np.histogram and one boolean pass over the cube per cluster."""
    rng = np.random.default_rng(seed)
    values = block.flat_values(cluster_var)
    centroids = kmeans_fit(values, num_clusters, seed=int(rng.integers(2**63)))
    labels = assign(centroids, values)
    k = centroids.size
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, num_bins + 1)
    dists = []
    sizes = np.empty(k, dtype=np.int64)
    for c in range(k):
        members = values[labels == c]
        sizes[c] = members.size
        counts, _ = np.histogram(members, bins=edges)
        dists.append(counts / counts.sum() if counts.sum() else np.zeros(num_bins))
    graph = adjacency_matrix(dists)
    counts = allocate_counts(graph.strengths, n, capacities=sizes)
    chosen = []
    for c in range(k):
        if counts[c] == 0:
            continue
        members = np.flatnonzero(labels == c)
        chosen.append(rng.choice(members, size=int(counts[c]), replace=False))
    return np.sort(np.concatenate(chosen)).astype(np.int64)


@st.composite
def blocks(draw):
    """A block of 1 to 12 points per axis; its values are normal draws or,
    to crowd the phase-space bins, a few repeated levels."""
    extents = tuple(draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.normal(size=extents)
    else:
        values = rng.integers(0, draw(st.integers(1, 4)), size=extents).astype(float)
    ds = GridDataset(
        dims=GridDims(*extents, nt=1, dims=3), fields={("u", 0): values},
        input_vars=["u"], output_vars=["u"], cluster_var="u",
    )
    return extract_block(ds, (0, 0, 0), extents, 0)


class TestSamplersMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(blocks(), st.data(), st.integers(0, 2**32 - 1))
    def test_lhs(self, block, data, seed):
        n = data.draw(st.integers(1, block.volume))
        assert np.array_equal(sample_lhs(block, n, seed), ref_sample_lhs(block, n, seed))

    def test_lhs_displaced_row(self):
        # row 12 moves onto a cell that a later row snapped to; that row
        # must then move too, or the sample holds cell 41 twice
        block = make_block(4)
        idx = sample_lhs(block, 18, seed=0)
        assert np.array_equal(idx, ref_sample_lhs(block, 18, 0))
        assert np.unique(idx).size == 18

    def test_nearest_free_tie_outside_the_scanned_cube(self):
        # (7,7,6) lies in the radius-2 cube at d^2 = 9 = (2 + 1)^2; (2,5,5)
        # lies just outside it at the same d^2 and wins on x
        taken = np.ones((11, 11, 11), dtype=bool)
        taken[7, 7, 6] = taken[2, 5, 5] = False
        assert _nearest_free(taken, (5, 5, 5)) == ref_nearest_free(taken, (5, 5, 5)) == (2, 5, 5)
        # a 3x5x4 LHS sample whose collisions reach such a tie
        block = extract_block(make_dataset(3, 5, 4), (0, 0, 0), (3, 5, 4), 0)
        assert np.array_equal(sample_lhs(block, 58, 1), ref_sample_lhs(block, 58, 1))

    @settings(max_examples=150, deadline=None)
    @given(blocks(), st.data(), st.integers(0, 2**32 - 1))
    def test_stratified(self, block, data, seed):
        strata = tuple(data.draw(st.integers(1, e)) for e in block.extents)
        n = data.draw(st.integers(strata[0] * strata[1] * strata[2], block.volume))
        assert np.array_equal(
            sample_stratified(block, n, strata, seed),
            ref_sample_stratified(block, n, strata, seed),
        )

    @settings(max_examples=150, deadline=None)
    @given(blocks(), st.data(), st.integers(0, 2**32 - 1))
    def test_uips(self, block, data, seed):
        n = data.draw(st.integers(1, block.volume))
        bins = data.draw(st.integers(1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the constant-field fallback warns
            fast = sample_uips(block, n, bins, ["u"], seed)
        assert np.array_equal(fast, ref_sample_uips(block, n, bins, ["u"], seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_uips_sum_on_the_stopping_threshold(self, seed):
        # 101 zeros then 61 ones in 2 bins, n = 100: the first bisection step
        # accepts the zeros with p = 1/2 and the ones with p = 101/122, an
        # exact total of 101 = n + 0.01 n.  Summed per bin it rounds to 101
        # and would stop there; summed per point it rounds above and goes on.
        values = np.concatenate([np.zeros(101), np.ones(61)]).reshape(162, 1, 1)
        ds = GridDataset(
            dims=GridDims(162, 1, 1, nt=1, dims=3), fields={("u", 0): values},
            input_vars=["u"], output_vars=["u"], cluster_var="u",
        )
        block = extract_block(ds, (0, 0, 0), (162, 1, 1), 0)
        assert np.array_equal(
            sample_uips(block, 100, 2, ["u"], seed), ref_sample_uips(block, 100, 2, ["u"], seed)
        )

    @settings(max_examples=100, deadline=None)
    @given(blocks(), st.data(), st.integers(0, 2**32 - 1))
    def test_maxent_points(self, block, data, seed):
        n = data.draw(st.integers(1, block.volume))
        k = data.draw(st.integers(1, 8))
        bins = data.draw(st.integers(1, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-zero strengths warn
            fast = sample_maxent_points(block, "u", k, n, seed, num_bins=bins)
            ref = ref_sample_maxent_points(block, "u", k, n, seed, num_bins=bins)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("case", ["constant", "ties", "bin_edges"])
    def test_maxent_points_degenerate(self, case):
        rng = np.random.default_rng(4)
        if case == "constant":
            values = np.full((8, 8, 8), -1.25)
        elif case == "ties":
            values = rng.choice([0.0, 0.0, 0.0, 1.0, 7.5], size=(8, 8, 8))
        else:  # every value sits exactly on one of the 10 bins' edges
            values = rng.choice(np.linspace(-2.0, 3.0, 11), size=(8, 8, 8))
            values.ravel()[[0, 1]] = -2.0, 3.0
        block = make_block(8, values=values)
        for seed in range(5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fast = sample_maxent_points(block, "u", 6, 100, seed, num_bins=10)
                ref = ref_sample_maxent_points(block, "u", 6, 100, seed, num_bins=10)
            assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("k", [1, 20, 256, 257, 300])
    def test_maxent_points_many_clusters(self, k):
        # the members are grouped by a stable argsort of the labels cast to
        # uint8 up to k = 256 and to uint16 beyond; the reference groups
        # them as the int64 stable argsort does, in ascending index order
        block = make_block(8, values=np.random.default_rng(k).lognormal(size=(8, 8, 8)))
        for seed in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # one cluster has all-zero strengths
                fast = sample_maxent_points(block, "u", k, 400, seed, num_bins=50)
                ref = ref_sample_maxent_points(block, "u", k, 400, seed, 50)
            assert np.array_equal(fast, ref)


class TestSampleMaxentPoints:
    def test_exact_unique_sorted(self):
        block = make_block(8)
        idx = sample_maxent_points(block, "u", 8, 100, seed=0)
        assert idx.size == 100 and np.unique(idx).size == 100
        assert np.all(np.diff(idx) > 0)

    def test_constant_field_uniform_allocation(self):
        block = make_block(4, values=np.full((4, 4, 4), 2.5))
        with pytest.warns(UserWarning):
            idx = sample_maxent_points(block, "u", 4, 10, seed=0)
        assert idx.size == 10 and np.unique(idx).size == 10

    def test_rare_cluster_overrepresented(self):
        # a handful of extreme-valued points forms its own cluster whose
        # histogram diverges strongly from the bulk, so it draws a
        # disproportionate share of the budget
        rng = np.random.default_rng(0)
        shares = []
        for seed in range(20):
            vals = rng.normal(0.0, 1.0, size=(8, 8, 8))
            outliers = rng.choice(512, size=8, replace=False)
            vals.ravel()[outliers] = rng.normal(60.0, 0.5, size=8)
            block = make_block(8, values=vals)
            idx = sample_maxent_points(block, "u", 8, 64, seed=seed)
            shares.append(np.isin(idx, outliers).mean())
        assert np.mean(shares) > 1.2 * (8 / 512)  # above the uniform rate

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_maxent_points(make_block(2), "u", 2, 9, seed=0)


class TestTemporalSelect:
    def test_identical_snapshots_lowest_indices(self):
        pdfs = np.tile([0.25, 0.25, 0.25, 0.25], (5, 1))
        assert temporal_select(pdfs, 3) == [0, 1, 2]

    def test_starts_at_max_entropy(self):
        pdfs = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.7, 0.1, 0.1, 0.1],
        ])
        assert temporal_select(pdfs, 1) == [1]

    def test_novelty_ordering(self):
        # after picking the uniform snapshot, the one-hot snapshot is
        # farther (in KL) from it than the mild tilt
        pdfs = np.array([
            [0.25, 0.25, 0.25, 0.25],
            [0.4, 0.2, 0.2, 0.2],
            [0.0, 1.0, 0.0, 0.0],
        ])
        assert temporal_select(pdfs, 2) == [0, 2]

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            temporal_select(np.ones((2, 4)) / 4, budget)

    def test_budget_exceeds_count(self):
        with pytest.raises(ValueError, match="budget"):
            temporal_select(np.ones((2, 4)) / 4, 3)

    @staticmethod
    def select_by_pairwise_kl(pdfs, budget):
        """Per-snapshot reference: one kl_divergence call per candidate."""
        smoothed = [(p + 1e-10) / (1.0 + p.size * 1e-10) for p in pdfs]
        entropies = [float(-np.sum(ps * np.log(ps))) for ps in smoothed]
        selected = [int(np.argmax(entropies))]
        while len(selected) < budget:
            mixture = pdfs[selected].mean(axis=0)
            gains = np.full(len(pdfs), -np.inf)
            for t in range(len(pdfs)):
                if t not in selected:
                    gains[t] = kl_divergence(pdfs[t], mixture)
            selected.append(int(np.argmax(gains)))
        return selected

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_kl_loop_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        T, bins = int(rng.integers(2, 30)), int(rng.integers(1, 40))
        pdfs = rng.uniform(size=(T, bins))
        pdfs[rng.uniform(size=(T, bins)) < 0.3] = 0.0
        # repeated snapshots tie on entropy and on every later gain
        dup = rng.integers(0, T, size=T // 3)
        pdfs[rng.integers(0, T, size=dup.size)] = pdfs[dup]
        sums = pdfs.sum(axis=1, keepdims=True)
        pdfs = np.divide(pdfs, sums, out=np.zeros_like(pdfs), where=sums > 0)
        for budget in (1, T // 2 + 1, T):
            assert temporal_select(pdfs, budget) == self.select_by_pairwise_kl(pdfs, budget)


class TestSampleSet:
    def make_sample(self):
        cfg = base_config(method="random", num_samples=8, num_hypercubes=2)
        return run_pipeline(cfg, make_dataset())

    def test_columns_and_shape(self):
        s = self.make_sample()
        assert s.columns == ["t", "i", "j", "k", "x", "y", "z", "u"]
        assert s.data.shape == (16, 8)

    def test_values_match_grid(self, tmp_path):
        s = self.make_sample()
        ds = make_dataset()
        for row in range(len(s)):
            t, i, j, k = (int(v) for v in s.data[row, :4])
            assert s.data[row, 7] == ds.fields["u", t][i, j, k]

        # float32 files loaded through skip strides: each row holds the
        # widened value at (i * 2, j * 3, k * 2) of its file, and x, y, z
        # are i, j, k over the strided grid's 6 x 4 x 4 points
        rng = np.random.default_rng(3)
        raw = {var: rng.normal(size=(2, 12, 10, 8)).astype("<f4") for var in ("u", "s")}
        for var, arr in raw.items():
            for t in range(2):
                arr[t].reshape(-1, order="F").tofile(tmp_path / f"{var}_{t}.bin")
        cfg = base_config(
            path=str(tmp_path), nx=12, ny=10, nz=8, nxskip=2, nyskip=3, nzskip=2, precision=4,
            input_vars=["u", "s"], output_vars=["s"], cluster_var="s",
            nxsl=3, nysl=2, nzsl=2, num_hypercubes=3, num_samples=8,
        )
        s = run_pipeline(cfg, load_dataset(cfg))
        assert s.columns[7:] == ["u", "s"] and len(s) == 2 * 3 * 8
        for row in s.data:
            t, i, j, k = (int(v) for v in row[:4])
            assert row[4:7].tolist() == [i / 5, j / 3, k / 3]
            assert row[7:].tolist() == [float(raw[var][t, i * 2, j * 3, k * 2]) for var in ("u", "s")]

    def test_normalized_coordinates(self):
        s = self.make_sample()
        np.testing.assert_allclose(s.data[:, 4], s.data[:, 1] / 7.0)
        np.testing.assert_allclose(s.data[:, 6], s.data[:, 3] / 7.0)

    def test_digest_ignores_timings(self):
        s = self.make_sample()
        d1 = s.content_digest()
        s.provenance["phase_seconds"] = {"phase1": 99.0, "phase2": 99.0}
        s.provenance["workers"] = 64
        assert s.content_digest() == d1
        s.provenance["seed"] = 12345
        assert s.content_digest() != d1

    def test_csv_byte_stable(self, tmp_path):
        s = self.make_sample()
        s.to_csv(tmp_path / "a.csv")
        s.to_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "t,i,j,k,x,y,z,u"


def csv_by_row(columns, data):
    """Per-row reference formatter for SampleSet.to_csv."""
    lines = [",".join(columns) + "\n"]
    for row in data:
        ints = [f"{int(v)}" for v in row[:4]]
        floats = [f"{v:.17g}" for v in row[4:]]
        lines.append(",".join(ints + floats) + "\n")
    return lines


class TestCsvBytes:
    EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
                1e16, 123456789.123, float("inf"), float("-inf"), float("nan")]

    def table(self, rows, role_vars, seed=0):
        rng = np.random.default_rng(seed)
        shape = (rows, 7 + role_vars)
        data = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        data[:, :4] = rng.integers(0, 2**31 + 1, size=(rows, 4))
        if rows:
            data[0, :4] = [0, 2**31, 2**31 - 1, -0.0]
            n = min(len(self.EXTREMES), data[:, 4:].size)
            data[:, 4:].flat[:n] = self.EXTREMES[:n]
        columns = ["t", "i", "j", "k", "x", "y", "z", *("v%d" % c for c in range(role_vars))]
        return SampleSet(columns=columns, data=data)

    @pytest.mark.parametrize("role_vars", [1, 4])
    @pytest.mark.parametrize("rows", [0, 1, 5, 4096, 4096 * 2 + 3])
    def test_matches_per_row_formatting(self, tmp_path, rows, role_vars):
        s = self.table(rows, role_vars, seed=rows + role_vars)
        s.to_csv(tmp_path / "s.csv")
        with open(tmp_path / "s.csv") as fh:
            got = fh.readlines()
        # compared as lists of lines: a failure names the first differing row
        assert got == csv_by_row(s.columns, s.data)

    # coordinate values as float64 bit patterns; every column gets both
    # zeros, and the %.17g columns (x, y, z) also get two NaN payloads
    ZEROS = [0x0000000000000000, 0x8000000000000000]
    NANS = [0x7FF8000000000000, 0x7FF8000000000001]
    INTS = np.array([1.0, 7.0, 127.0, 2.0**31, 2.0**53]).view(np.uint64).tolist()
    FLOATS = np.array([1.0, 0.1, 1 / 3, 5e-324, 1e16, 1.7976931348623157e308,
                       float("inf"), -float("inf")]).view(np.uint64).tolist()

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(4093, 4100) | st.integers(1, 5),
        role_vars=st.sampled_from([1, 4]),
        ints=st.lists(st.lists(st.sampled_from(INTS), max_size=3), min_size=4, max_size=4),
        floats=st.lists(st.lists(st.sampled_from(FLOATS), max_size=3), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_coordinate_bits(self, tmp_path_factory, rows, role_vars, ints, floats, seed):
        rng = np.random.default_rng(seed)
        pools = [self.ZEROS + p for p in ints] + [self.ZEROS + self.NANS + p for p in floats]
        data = np.empty((rows, 7 + role_vars))
        for c, pool in enumerate(pools):
            bits = np.array(pool, dtype=np.uint64)
            data[:, c] = bits[rng.integers(0, len(bits), size=rows)].view(np.float64)
        data[:, 7:] = rng.normal(size=(rows, role_vars))
        columns = ["t", "i", "j", "k", "x", "y", "z", *("v%d" % c for c in range(role_vars))]
        s = SampleSet(columns=columns, data=data)
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        s.to_csv(path)
        with open(path) as fh:
            got = fh.readlines()
        assert got == csv_by_row(s.columns, s.data)

    def test_zero_rows_write_the_header_only(self, tmp_path):
        s = self.table(0, 1)
        s.to_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == b"t,i,j,k,x,y,z,v0\n"


SMAPS = Path("/proc/self/smaps")


def mapped_rss_kib(directory: Path) -> int:
    """Resident KiB of this process's mappings of the .bin files in
    directory, summed from /proc/self/smaps."""
    total, counting = 0, False
    for line in SMAPS.read_text().splitlines():
        head = line.split(None, 5)
        if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", head[0]):  # a mapping's first line
            counting = len(head) == 6 and head[5].endswith(".bin") \
                and Path(head[5]).parent == directory
        elif counting and head[0] == "Rss:":
            total += int(head[1])
    return total


class TestRunPipeline:
    @pytest.mark.skipif(not SMAPS.exists(), reason="reads Linux's /proc/self/smaps")
    @pytest.mark.parametrize("run", [
        lambda config, ds: run_pipeline(config, ds),
        lambda config, ds: run_pipeline(replace(config, hypercubes="random", method="random"), ds),
        lambda config, ds: compare_methods(config, ds, ["random", "maxent"], [0, 1])[0],
    ], ids=["maxent", "random", "compare"])
    def test_run_leaves_no_mapped_page_resident(self, tmp_path, run):
        # each stage that reads a mapped field releases its pages; a run once
        # left whole files resident, 43 904 KiB on a 112^3 float64 case.  One
        # cube of 16^3 lies within one 2 MiB huge page of a 6 MiB file, so a
        # stage that skips its release leaves pages no cube's release drops.
        ds = gen_taylor_green((64, 64, 192))  # u, v, w and wz
        save_dataset(ds, tmp_path)
        config = replace(parse_config(dataset_config(ds, tmp_path)), hypercubes="maxent",
                         method="maxent", num_hypercubes=1, num_samples=100, num_clusters=4,
                         nxsl=16, nysl=16, nzsl=16)
        loaded = load_dataset(config)
        assert mapped_rss_kib(tmp_path) == 0
        assert len(run(config, loaded)) > 0
        assert mapped_rss_kib(tmp_path) == 0
        for (var, t), field in loaded.fields.items():
            on_disk = np.fromfile(tmp_path / f"{var}_{t}.bin").reshape(field.shape, order="F")
            np.testing.assert_array_equal(field, on_disk)
        assert mapped_rss_kib(tmp_path) > 0  # the count sees pages a read maps

    @pytest.mark.parametrize("named, overrides", [
        ("cluster_var ''", dict(hypercubes="maxent")),
        ("cluster_var ''", dict(method="maxent")),
        ("cluster_var 'p'", dict(hypercubes="maxent", method="maxent", cluster_var="p")),
        ("input_vars 'p'", dict(method="uips", input_vars=["u", "p"])),
    ], ids=["maxent-cubes", "maxent-points", "absent-cluster-var", "uips-input-var"])
    def test_a_role_the_dataset_lacks_is_named(self, named, overrides):
        # the config's cluster_var defaults to "", which once raised KeyError: ''
        config = RunConfig(nx=16, ny=16, nz=16, nxsl=8, nysl=8, nzsl=8, num_hypercubes=2,
                           num_samples=10, **overrides)
        with pytest.raises(ConfigError, match=named):
            run_pipeline(config, gen_taylor_green((16, 16, 16)))

    def test_roles_are_checked_by_membership(self):
        # the dataset's roles are u, v, w and wz; any of them may be named
        config = RunConfig(nx=16, ny=16, nz=16, nxsl=8, nysl=8, nzsl=8, num_hypercubes=2,
                           num_samples=10, hypercubes="maxent", method="uips",
                           input_vars=["v"], cluster_var="u")
        assert len(run_pipeline(config, gen_taylor_green((16, 16, 16)))) == 20

    @pytest.mark.parametrize("method", ["random", "stratified", "lhs", "uips", "maxent"])
    def test_each_method_emits_exact_count(self, method):
        cfg = base_config(method=method, num_samples=10, num_hypercubes=3)
        s = run_pipeline(cfg, make_dataset())
        assert len(s) == 30

    def test_full_method_emits_volume(self):
        cfg = base_config(method="full", num_samples=None, num_hypercubes=2)
        s = run_pipeline(cfg, make_dataset())
        assert len(s) == 2 * 64

    def test_worker_count_invariance(self):
        cfg = base_config(method="maxent", hypercubes="maxent", num_samples=12,
                          num_hypercubes=4)
        ds = make_dataset()
        digests = {
            run_pipeline(cfg, ds, workers=w).content_digest() for w in (1, 2, 4)
        }
        assert len(digests) == 1

    def test_seed_changes_output(self):
        ds = make_dataset()
        a = run_pipeline(base_config(seed=1), ds)
        b = run_pipeline(base_config(seed=2), ds)
        assert a.content_digest() != b.content_digest()

    def test_multiple_timesteps(self):
        ds = make_dataset(nt=3)
        cfg = base_config(num_samples=4, num_hypercubes=2, timesteps=[0, 2])
        s = run_pipeline(cfg, ds)
        assert len(s) == 16
        assert set(s.data[:, 0].astype(int)) == {0, 2}

    def test_timesteps_share_one_pool(self, monkeypatch):
        cfg = base_config(method="maxent", hypercubes="maxent", num_samples=12,
                          num_hypercubes=3)
        ds = make_dataset(nt=3)
        results = [run_pipeline(cfg, ds, workers=w) for w in (1, 2, 3)]
        assert len({r.content_digest() for r in results}) == 1
        keys = [tuple(r[:2]) for r in results[0].provenance["cube_ranges"]]
        assert len(keys) == 9 and keys == sorted(keys)
        assert {t for t, _ in keys} == {0, 1, 2}

        calls = []
        real_map = bench.parallel_map

        def counting_map(fn, items, workers):
            calls.append(len(items))
            return real_map(fn, items, workers)

        monkeypatch.setattr(bench, "parallel_map", counting_map)
        run_pipeline(cfg, ds, workers=2)
        assert calls == [9]

    def test_cube_ranges_partition_rows(self):
        cfg = base_config(num_samples=6, num_hypercubes=3)
        s = run_pipeline(cfg, make_dataset())
        ranges = s.provenance["cube_ranges"]
        assert len(ranges) == 3
        assert ranges[0][2] == 0 and ranges[-1][3] == len(s)
        for prev, cur in zip(ranges, ranges[1:]):
            assert prev[3] == cur[2]

    def test_too_many_hypercubes(self):
        cfg = base_config(num_hypercubes=100)
        with pytest.raises(ValueError, match="num_hypercubes"):
            run_pipeline(cfg, make_dataset())

    def test_points_unique_within_cube(self):
        cfg = base_config(method="random", num_samples=32, num_hypercubes=8)
        s = run_pipeline(cfg, make_dataset())
        coords = s.data[:, :4].astype(int)
        assert len({tuple(r) for r in coords}) == len(s)


@st.composite
def pipeline_cases(draw):
    """A small grid, not always a whole number of cubes per axis, with a
    normal field u and a cluster field s that is lognormal or constant."""
    grid = [draw(st.integers(2, 9)) for _ in range(3)]
    cube = [draw(st.integers(2, min(g, 4))) for g in grid]
    nt = draw(st.integers(1, 2))
    per_step = (grid[0] // cube[0]) * (grid[1] // cube[1]) * (grid[2] // cube[2])
    volume = cube[0] * cube[1] * cube[2]
    return dict(
        grid=grid, cube=cube, nt=nt,
        num_hypercubes=draw(st.integers(1, per_step)),
        num_samples=draw(st.integers(8, volume)),  # 8 = the 2x2x2 strata
        constant=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("hypercubes", ["random", "maxent"])
@pytest.mark.parametrize("method", ["full", "random", "stratified", "lhs", "uips", "maxent"])
@settings(max_examples=6, deadline=None)
@given(case=pipeline_cases())
@example(case=dict(
    grid=[7, 5, 6], cube=[3, 2, 3], nt=2, num_hypercubes=3, num_samples=10,
    constant=True, seed=1,
))
def test_pipeline_properties(method, hypercubes, case):
    nx, ny, nz = case["grid"]
    sx, sy, sz = case["cube"]
    nt = case["nt"]
    rng = np.random.default_rng(case["seed"])
    shape = (nt, nx, ny, nz)
    s_field = np.full(shape, 2.5) if case["constant"] else rng.lognormal(size=shape)
    u_field = rng.normal(size=shape)
    ds = GridDataset(
        dims=GridDims(nx=nx, ny=ny, nz=nz, nt=nt, dims=3),
        fields={(var, t): arr[t] for var, arr in (("u", u_field), ("s", s_field))
                for t in range(nt)},
        input_vars=["u", "s"], output_vars=["s"], cluster_var="s",
    )
    cfg = RunConfig(
        nx=nx, ny=ny, nz=nz, input_vars=["u", "s"], output_vars=["s"], cluster_var="s",
        nxsl=sx, nysl=sy, nzsl=sz, num_hypercubes=case["num_hypercubes"],
        method=method, hypercubes=hypercubes, num_samples=case["num_samples"],
        num_clusters=3, strata=[2, 2, 2], uips_bins=4, seed=case["seed"],
    )
    sample = run_pipeline(cfg, ds, workers=1)

    per_cube = sx * sy * sz if method == "full" else case["num_samples"]
    assert len(sample) == nt * case["num_hypercubes"] * per_cube
    tijk = sample.data[:, :4].astype(np.int64)
    assert np.unique(tijk, axis=0).shape[0] == len(sample)
    ranges = sample.provenance["cube_ranges"]
    assert ranges[0][2] == 0 and ranges[-1][3] == len(sample)
    bx, by = nx // sx, ny // sy
    for t, index, start, end in ranges:
        lo = np.array([index % bx * sx, index // bx % by * sy, index // (bx * by) * sz])
        rows = tijk[start:end]
        assert np.all(rows[:, 0] == t)
        assert np.all((rows[:, 1:] >= lo) & (rows[:, 1:] < lo + [sx, sy, sz]))
    assert run_pipeline(cfg, ds, workers=2).content_digest() == sample.content_digest()


# content_digest of one small seeded run per (method, hypercube mode):
# Taylor-Green 32^3, 16^3 cubes, 3 cubes, 200 samples, 8 clusters, seed 7.
# A change that alters output bytes updates the digest it moves and says
# why in CHANGES.md.
GOLDEN_DIGESTS = {
    ("full", "random"): "255ff19cc63b015443775fffa93030d4a16d72998715bf94e6e08554157d82b1",
    ("random", "random"): "4e3543b990f1b311d31f31e87f373f4db6ea46cce09c0eec92f95a7008d0a8ef",
    ("stratified", "random"): "d3a17f329dc0059e97e6e00a552fa09f9f8e159c09f0ae9d8780522aee48e6a5",
    ("lhs", "random"): "81b46a1e3c7dafe736644d38aaa755a9064c5674454832b14bcd1b860ea00778",
    ("uips", "random"): "0630b87dfa73ed9dfc90ffaa7934c68df5298ed96f0030d09299be49700dc139",
    ("maxent", "random"): "02690535f17d7bbc7147f8b1b1f798549ac77fda1f343e983563646eb6564c2b",
    ("full", "maxent"): "657e1adc590626dd3b5970258ee4431516e5cd153ac3c8dc3f032b42b31f41eb",
    ("random", "maxent"): "d7b378a26027d3696064bb8a861d6054a00bb12a6bbb248d5d6dbe3f350c491e",
    ("stratified", "maxent"): "176f93684e3374251ac86843aaf37e33aee1349eeb3de0eca0463064df4e7c1e",
    ("lhs", "maxent"): "b586e879a423b6fdd6d0e3b110395ea77dd08628d86cd43962bf35c78e3d40d2",
    ("uips", "maxent"): "556fde2befbf847d0a921a0c9ebde34fdd608ae3243f65f0c0ca743f6edbce18",
    ("maxent", "maxent"): "f83995e46a4d18a6de9e1d5c8c07b5c887238776581af82a9d4d3a4daf2ff16a",
}


@pytest.fixture(scope="module")
def taylor_green_32():
    from curator.synthetic import gen_taylor_green

    return gen_taylor_green((32, 32, 32))


@pytest.mark.parametrize("method, hypercubes", sorted(GOLDEN_DIGESTS))
def test_golden_digest(taylor_green_32, method, hypercubes):
    cfg = RunConfig(
        nx=32, ny=32, nz=32, input_vars=["u", "v"], output_vars=["wz"], cluster_var="wz",
        nxsl=16, nysl=16, nzsl=16, num_hypercubes=3, num_samples=200, num_clusters=8,
        seed=7, hypercubes=hypercubes, method=method,
    )
    digest = run_pipeline(cfg, taylor_green_32).content_digest()
    assert digest == GOLDEN_DIGESTS[(method, hypercubes)]
