import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curator.entropy import (
    MIN_BIN_WIDTH,
    adjacency_matrix,
    allocate_counts,
    bin_edges,
    bin_index,
    kl_divergence,
    node_strengths,
    weighted_sample,
)


def kl_oracle(p, q, eps=1e-10):
    """Plain-Python direct summation over smoothed, renormalized vectors."""
    k = len(p)
    ps = [(v + eps) / (1.0 + k * eps) for v in p]
    qs = [(v + eps) / (1.0 + k * eps) for v in q]
    return sum(a * math.log(a / b) for a, b in zip(ps, qs))


def random_distribution(rng, k):
    v = rng.uniform(size=k)
    return v / v.sum()


class TestBinning:
    @given(
        st.lists(
            st.one_of(
                st.integers(-20, 20).map(float),
                st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            ),
            min_size=1, max_size=60,
        ),
        st.integers(min_value=1, max_value=40),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_np_histogram(self, values, bins, constant):
        values = np.array(values[:1] * len(values) if constant else values)
        edges = bin_edges(values, bins)
        # every edge is also a value, so each bin boundary and both ends are hit
        values = np.concatenate([values, edges])
        counts = np.bincount(bin_index(edges, values), minlength=bins)
        assert np.array_equal(counts, np.histogram(values, edges)[0])

    def test_constant_data_spans_one_unit(self):
        assert np.array_equal(bin_edges(np.full(5, 2.0), 4), np.linspace(2.0, 3.0, 5))
        # where [v, v + 1] has no room for the bins, the span is [v, v + |v|]
        for v, bins in ((2.0**53, 4), (-2.0**60, 4), (2.0**50, 100)):
            edges = bin_edges(np.full(5, v), bins)
            assert np.array_equal(edges, np.linspace(v, v + abs(v), bins + 1))

    def test_out_of_range_values_clip_to_the_end_bins(self):
        assert bin_index(np.linspace(0.0, 1.0, 5), np.array([-1.0, 2.0])).tolist() == [0, 3]

    @pytest.mark.parametrize("values", [
        [2.0**60, 2.0**60 + 256],  # linspace rounds 99 of its edges onto the two values
        [1e308],  # [v, v + |v|] overflows
        [-1.7e308, 1.7e308],  # hi - lo overflows
        [-2.0**60 - 256, -2.0**60],
        [np.finfo(float).max],
        [-np.finfo(float).max, np.finfo(float).max],
        [0.0, 5e-324],
        [0.0, 1e-300],  # finite densities need bins at least MIN_BIN_WIDTH wide
    ])
    @pytest.mark.parametrize("bins", [2, 100])
    def test_edges_are_finite_and_strictly_increasing(self, values, bins):
        values = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = bin_edges(values, bins)
            assert edges.size == bins + 1 and np.all(np.isfinite(edges))
            assert np.all(edges[1:] > edges[:-1])
            assert np.all(np.diff(edges) >= MIN_BIN_WIDTH)
            assert edges[0] <= values.min() and values.max() <= edges[-1]
            assert np.array_equal(bin_index(edges, values), searchsorted_bins(edges, values))
            densities = np.histogram(values, edges, density=True)[0]
            assert np.sum(densities * np.diff(edges)) == pytest.approx(1.0)


def searchsorted_bins(edges, values):
    """The bin rule that bin_index computes by arithmetic."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, edges.size - 2)


def around(edges):
    """Each edge, its finite float neighbours, and values beyond either end."""
    with np.errstate(over="ignore"):
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return np.concatenate([near[np.isfinite(near)], [edges[0] - 1.0, edges[-1] + 1.0, -1e300, 1e300]])


class TestBinIndexMatchesSearchsorted:
    @pytest.mark.parametrize("bins", [1, 2, 7, 20, 100])
    @pytest.mark.parametrize("seed", range(3))
    def test_on_every_edge_and_beyond_the_ends(self, bins, seed):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(size=500) * 10.0 ** rng.integers(-5, 6)
        edges = bin_edges(data, bins)
        values = np.concatenate([data, around(edges)])
        assert np.array_equal(bin_index(edges, values), searchsorted_bins(edges, values))

    @pytest.mark.parametrize("v", [-1.25, 0.0, 3.0, 2.0**53, -2.0**60])
    def test_constant_data(self, v):
        edges = bin_edges(np.full(4, v), 10)
        values = np.concatenate([np.full(4, v), around(edges)])
        assert np.array_equal(bin_index(edges, values), searchsorted_bins(edges, values))

    @pytest.mark.parametrize("edges", [
        [0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0],
        [5.0, 5.0, 5.0],
        [-1.0, -1.0, 0.0, 4.0],
    ])
    def test_zero_width_edges(self, edges):
        edges = np.array(edges)
        values = around(edges)
        assert np.array_equal(bin_index(edges, values), searchsorted_bins(edges, values))

    def test_float32_widened_values(self):
        x32 = np.random.default_rng(2).standard_normal(4000).astype(np.float32)
        edges = bin_edges(x32.astype(np.float64), 100)
        # values at and next to the edges, rounded to float32
        near = around(edges)[:-2].astype(np.float32)
        for values in (x32, x32.astype(np.float64), near, near.astype(np.float64)):
            assert np.array_equal(bin_index(edges, values), searchsorted_bins(edges, values))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        st.integers(1, 120),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=10),
    )
    def test_any_finite_values(self, data, bins, extra):
        edges = bin_edges(np.array(data), bins)
        values = np.concatenate([data, extra, around(edges)])
        assert np.array_equal(bin_index(edges, values), searchsorted_bins(edges, values))


class TestKlDivergence:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_distribution(rng, 8)
            assert abs(kl_divergence(p, p)) < 1e-9

    def test_hand_value(self):
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert abs(kl_divergence([0.5, 0.5], [0.25, 0.75]) - expected) < 1e-9
        assert abs(expected - 0.14384) < 1e-5

    def test_one_hot_against_half(self):
        assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 101))
            p, q = random_distribution(rng, k), random_distribution(rng, k)
            got = kl_divergence(p, q)
            want = kl_oracle(list(p), list(q))
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 30))
            assert kl_divergence(
                random_distribution(rng, k), random_distribution(rng, k)
            ) >= 0.0

    def test_asymmetry_witnessed(self):
        rng = np.random.default_rng(3)
        found = False
        for _ in range(50):
            p, q = random_distribution(rng, 5), random_distribution(rng, 5)
            if abs(kl_divergence(p, q) - kl_divergence(q, p)) > 1e-6:
                found = True
                break
        assert found

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])


class TestAdjacencyMatrix:
    def test_identical_distributions(self):
        g = adjacency_matrix([np.array([0.2, 0.8])] * 4)
        assert np.all(g.A == 0.0) and np.all(g.strengths == 0.0)

    def test_hand_value_symmetric_pair(self):
        g = adjacency_matrix([np.array([0.75, 0.25]), np.array([0.25, 0.75])])
        expected = 0.5 * math.log(3)
        np.testing.assert_allclose(g.A[0, 1], expected, atol=1e-8)
        np.testing.assert_allclose(g.A[1, 0], expected, atol=1e-8)
        np.testing.assert_allclose(g.strengths, [expected, expected], atol=1e-8)

    def test_diagonal_zero_and_matches_pairwise_calls(self):
        rng = np.random.default_rng(11)
        dists = [random_distribution(rng, 6) for _ in range(7)]
        g = adjacency_matrix(dists)
        assert np.all(np.diag(g.A) == 0.0)
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert g.A[i, j] == kl_divergence(dists[i], dists[j])
        np.testing.assert_array_equal(g.strengths, g.A.sum(axis=1))

    def test_inconsistent_lengths(self):
        with pytest.raises(ValueError, match="length"):
            adjacency_matrix([np.array([0.5, 0.5]), np.array([1.0])])

    def test_ragged_input_names_the_distribution(self):
        # a 2-D entry of the right size would stack; the length check
        # runs first and names the first entry that is off
        dists = [np.array([0.5, 0.5]), np.ones((1, 2)) / 2, np.array([0.2, 0.3, 0.5])]
        with pytest.raises(ValueError, match=r"^distribution 2 has length 3, expected 2$"):
            adjacency_matrix(dists)

    @given(
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=120),
        st.sampled_from([0.0, 0.5, 0.9]),
        st.sampled_from([0.0, 0.2]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_against_pairwise_kl(self, n, length, empty_bins, empty_rows, seed):
        # normalised histograms with empty bins, and all-zero rows as
        # sample_maxent_points passes for an empty cluster
        rng = np.random.default_rng(seed)
        counts = rng.uniform(size=(n, length))
        counts[rng.uniform(size=(n, length)) < empty_bins] = 0.0
        counts[rng.uniform(size=n) < empty_rows] = 0.0
        dists = [c / c.sum() if c.sum() > 0.0 else np.zeros(length) for c in counts]
        n = len(dists)
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    want[i, j] = kl_divergence(dists[i], dists[j])
        g = adjacency_matrix(dists)
        assert np.array_equal(g.A, want)
        assert np.array_equal(g.strengths, want.sum(axis=1))


class TestNodeStrengths:
    @given(
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=120),
        st.sampled_from([0.0, 0.5, 0.9]),
        st.sampled_from([0.0, 0.2]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_matrix_row_sums(self, n, length, empty_bins, empty_rows, seed):
        # adjacency_matrix's cases: histograms with empty bins, all-zero
        # rows, and n = 1, where the one row equals the first
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 50, size=(n, length)).astype(float)
        counts[rng.uniform(size=(n, length)) < empty_bins] = 0.0
        counts[rng.uniform(size=n) < empty_rows] = 0.0
        sums = counts.sum(axis=1, keepdims=True)
        dists = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
        want = adjacency_matrix(dists).strengths
        got = node_strengths(dists)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_equal_rows_give_exact_zeros(self, seed):
        # as the matrix does; the closed form's two terms need not cancel
        # exactly, so without the equal-row rule some of these read > 0
        rng = np.random.default_rng(seed)
        row = rng.integers(0, 9, size=rng.integers(2, 30)).astype(float)
        dists = np.tile(row / max(row.sum(), 1.0), (int(rng.integers(1, 40)), 1))
        assert np.array_equal(node_strengths(dists), adjacency_matrix(dists).strengths)
        assert not node_strengths(dists).any()


def ref_weighted_sample(weights, n, seed=0):
    """weighted_sample with its two uniform fallbacks: an all-zero reset up
    front, and a reset of the weights left when they run out mid-draw."""
    w = np.asarray(weights, dtype=np.float64).copy()
    N = w.size
    if w.sum() == 0.0:
        warnings.warn("all weights zero; falling back to uniform sampling", stacklevel=2)
        w = np.ones(N)
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.int64)
    for draw in range(n):
        total = w.sum()
        if total == 0.0:
            w = np.where(w >= 0.0, 1.0, 0.0)
            w[out[:draw]] = 0.0
            total = w.sum()
        out[draw] = rng.choice(N, p=w / total)
        w[out[draw]] = 0.0
    return out


class TestWeightedSample:
    @pytest.mark.parametrize("weights, n", [
        ([0.0, 0.0, 0.0, 0.0, 0.0], 5),  # all zero
        ([0, 0, 1, 0], 3),  # runs out after the first draw
        ([0.0, 2.0, 0.0, 1.0, 0.0, 0.0], 5),  # and after the second
        ([0.0, 0.3, 1e-12, 0.0, 7.0, 2.5, 0.0, 1.0], 4),  # never runs out
    ])
    @pytest.mark.parametrize("seed", range(20))
    def test_draws_and_warnings_match_two_fallbacks(self, weights, n, seed):
        # the reference draws with rng.choice; the generator's state after
        # the draws must match too
        draws = []
        for fn in (weighted_sample, ref_weighted_sample):
            rng = np.random.default_rng(seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(weights, n, seed=rng)
            draws.append((out.tolist(), [str(w.message) for w in caught], rng.bit_generator.state))
        assert draws[0] == draws[1]

    def test_one_hot_weight(self):
        for seed in range(5):
            assert weighted_sample([0, 0, 1, 0], 1, seed=seed)[0] == 2

    def test_exhaustion_is_permutation(self):
        out = weighted_sample([1, 1, 1, 1], 4, seed=0)
        assert sorted(out.tolist()) == [0, 1, 2, 3]

    def test_first_draw_ordering_matches_weights(self):
        counts = np.zeros(3, dtype=int)
        for seed in range(10000):
            counts[weighted_sample([1.0, 2.0, 4.0], 2, seed=seed)[0]] += 1
        assert counts[0] < counts[1] < counts[2]

    def test_deterministic(self):
        a = weighted_sample([1, 2, 3, 4], 3, seed=9)
        b = weighted_sample([1, 2, 3, 4], 3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_zero_weights_uniform_fallback(self):
        with pytest.warns(UserWarning, match="uniform"):
            out = weighted_sample([0.0, 0.0], 2, seed=0)
        assert sorted(out.tolist()) == [0, 1]

    def test_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_sample([-1.0, 1.0], 1)
        with pytest.raises(ValueError, match="without replacement"):
            weighted_sample([1.0, 1.0], 3)


class TestAllocateCounts:
    def test_symmetric_split(self):
        np.testing.assert_array_equal(allocate_counts([1, 1], 10), [5, 5])

    def test_largest_remainder_hand_case(self):
        np.testing.assert_array_equal(allocate_counts([3, 1], 2), [2, 0])

    def test_all_zero_uniform_fallback(self):
        np.testing.assert_array_equal(allocate_counts([0, 0, 0], 3), [1, 1, 1])

    def test_zero_total(self):
        np.testing.assert_array_equal(allocate_counts([1, 2], 0), [0, 0])

    def test_zero_strength_receives_nothing(self):
        counts = allocate_counts([5.0, 0.0, 5.0], 7)
        assert counts[1] == 0 and counts.sum() == 7

    def test_capacity_redistribution(self):
        counts = allocate_counts([10.0, 1.0, 1.0], 10, capacities=[3, 10, 10])
        assert counts[0] == 3 and counts.sum() == 10
        # overflow split by remaining strength (equal here)
        assert counts[1] in (3, 4) and counts[2] in (3, 4)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_conserved(self, strengths, n_total):
        counts = allocate_counts(strengths, n_total)
        assert counts.sum() == n_total
        assert np.all(counts >= 0)
