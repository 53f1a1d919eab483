import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curator import clustering
from curator.clustering import _kmeanspp_init, assign, kmeans_fit


def two_blobs(seed=0, n=1000, sep=10.0, sigma=0.1):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(-sep, sigma, size=n), rng.normal(sep, sigma, size=n)])


def nearest(centroids, values):
    """Brute-force nearest centroid; argmin breaks ties toward the lowest index."""
    return np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)


def lloyd_full_batch(values, init, iters=50):
    """Independent full-batch Lloyd's iteration used as an oracle."""
    centroids = init.copy()
    for _ in range(iters):
        labels = nearest(centroids, values)
        for c in range(centroids.size):
            members = values[labels == c]
            if members.size:
                centroids[c] = members.mean()
    return centroids


def sse(centroids, values):
    return float(np.sum((values - centroids[nearest(centroids, values)]) ** 2))


class TestKmeansFit:
    def test_k1_is_mean(self):
        values = np.random.default_rng(1).normal(size=500)
        centroids = kmeans_fit(values, k=1, seed=0)
        np.testing.assert_allclose(centroids, [values.mean()], rtol=1e-12)

    def test_two_blobs_matches_lloyd_oracle(self):
        values = two_blobs()
        got = kmeans_fit(values, k=2, seed=3)
        oracle = lloyd_full_batch(values, np.array([-1.0, 1.0]))
        np.testing.assert_allclose(got, oracle, rtol=1e-12)
        assert abs(got[0] + 10.0) < 0.1 and abs(got[1] - 10.0) < 0.1

    def test_centroids_are_cell_means(self):
        # the result is a fixed point of Lloyd's iteration
        values = np.random.default_rng(4).lognormal(size=5000)
        centroids = kmeans_fit(values, k=7, seed=1)
        labels = nearest(centroids, values)
        means = [values[labels == c].mean() for c in range(centroids.size)]
        np.testing.assert_allclose(centroids, means, rtol=1e-9)

    def test_n_less_than_k(self):
        with pytest.warns(UserWarning, match="distinct"):
            centroids = kmeans_fit(np.zeros(3), k=5)
        np.testing.assert_array_equal(centroids, [0.0])

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                kmeans_fit(np.array([1.0, bad]), k=1)

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(7).normal(size=400)
        a = kmeans_fit(values, k=5, seed=11)
        b = kmeans_fit(values, k=5, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_output(self):
        values = np.random.default_rng(7).normal(size=400)
        a = kmeans_fit(values, k=5, seed=11)
        b = kmeans_fit(values, k=5, seed=12)
        assert a.tobytes() != b.tobytes()

    def test_refinement_never_worse_than_init(self):
        values = np.random.default_rng(5).normal(size=2000)
        # kmeans_fit draws its k-means++ seeds from the same stream first
        init = _kmeanspp_init(np.sort(values), 8, np.random.default_rng(2))
        fitted = kmeans_fit(values, k=8, seed=2)
        assert sse(fitted, values) <= sse(init, values) + 1e-12

    def test_separated_blobs_recovered(self):
        # k well-separated blobs: >= 99% label purity across seeds
        rng = np.random.default_rng(0)
        k, per = 4, 300
        centers = np.array([0.0, 30.0, 60.0, 90.0])
        values = np.concatenate([rng.normal(c, 1.0, size=per) for c in centers])
        truth = np.repeat(np.arange(k), per)
        ok = 0
        for seed in range(20):
            centroids = kmeans_fit(values, k=k, seed=seed)
            assert np.all(np.diff(centroids) > 0)
            labels = assign(centroids, values)
            # map each fitted label to its majority truth blob
            agree = 0
            for c in range(k):
                members = truth[labels == c]
                if members.size:
                    agree += np.max(np.bincount(members, minlength=k))
            ok += agree / values.size >= 0.99
        assert ok == 20

    def test_rare_values_missing_from_seed_subset(self):
        # the k-means++ subset almost surely holds only zeros; the other
        # seeds come from all values, so no centroid is left empty
        values = np.concatenate([np.zeros(100_000), np.arange(1.0, 20.0)])
        centroids = kmeans_fit(values, k=20, seed=0)
        np.testing.assert_array_equal(centroids, np.arange(20.0))

    def test_underflowing_distances_still_seed_k(self):
        # every squared distance between these values underflows to 0
        centroids = kmeans_fit(np.array([0.0, 1e-200, 2e-200, 2e-200]), k=3)
        np.testing.assert_array_equal(centroids, [0.0, 1e-200, 2e-200])

    def test_centroids_stay_in_their_cells(self):
        # a prefix sum dominated by -1e17 cannot resolve the small cells'
        # sums; their centroids must still be their own values
        values = np.array([-1e17, 0.1, 0.1, 0.1, 0.3, 0.3, 0.3])
        np.testing.assert_array_equal(kmeans_fit(values, k=3, seed=0), [-1e17, 0.1, 0.3])


class TestAssign:
    def test_exact_centroid(self):
        centroids = kmeans_fit(np.arange(5.0), k=5, seed=0)
        np.testing.assert_array_equal(centroids, np.arange(5.0))
        assert assign(centroids, centroids[3:4])[0] == 3

    def test_tie_breaks_low_index(self):
        centroids = np.array([0.0, 2.0, 4.0, 7.0, 9.0])
        # 3.0 is equidistant to centroids 1 and 2; lowest index wins
        assert assign(centroids, np.array([3.0]))[0] == 1
        # x - c0 == c1 - x in float64; |x|^2 - 2xc + |c|^2 cancellation
        # once labelled this value 1
        c0, c1, x = 0.8406114889348372, 0.8741970642403015, 0.8574042765875693
        assert x - c0 == c1 - x
        assert assign(np.array([c0, c1]), np.array([x]))[0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=3000)
        centroids = kmeans_fit(values, k=6, seed=1)
        np.testing.assert_array_equal(assign(centroids, values), nearest(centroids, values))

    def test_idempotent(self):
        values = np.random.default_rng(3).normal(size=100)
        centroids = kmeans_fit(values, k=3, seed=0)
        np.testing.assert_array_equal(assign(centroids, values), assign(centroids, values))


def test_effective_k_reduces_with_warning():
    with pytest.warns(UserWarning, match="distinct"):
        assert kmeans_fit(np.array([1.0, 1.0, 2.0]), 5).size == 2
    assert kmeans_fit(np.arange(10.0), 5).size == 5


# a few values, ±0 among them, so draws tie often and may hold fewer than k
_TIED = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.75])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_TIED | st.floats(-1e6, 1e6), min_size=1, max_size=300),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=[2.0] * 7, k=3, seed=0)  # constant data
@example(values=[0.0, -0.0, -0.0, 0.0, -0.0], k=2, seed=1)  # only ±0
def test_overwrite_input_sorts_the_buffer_to_the_same_fit(values, k, seed):
    x = np.array(values)
    before = x.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer distinct values than k
        copied = kmeans_fit(x, k, seed)
        assert x.tobytes() == before  # the default leaves its input untouched
        in_place = kmeans_fit(x, k, seed, overwrite_input=True)
    assert np.array_equal(in_place, copied)
    assert np.array_equal(x, np.sort(np.frombuffer(before)))


def ref_kmeans_fit(values, k, seed=0):
    """kmeans_fit's Lloyd loop as it was before its preallocated form, kept
    as the reference; also reports whether some cell emptied."""
    x = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = x.size
    distinct = 1 + int(np.count_nonzero(x[1:] != x[:-1]))
    k = min(k, distinct)
    centroids = _kmeanspp_init(x, k, np.random.default_rng(seed))
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    np.cumsum(x, out=prefix[1:])
    emptied = False
    for _ in range(100):
        cuts = np.searchsorted(x, (centroids[:-1] + centroids[1:]) / 2, side="right")
        lo = np.concatenate(([0], cuts))
        hi = np.concatenate((cuts, [n]))
        filled = hi > lo
        emptied |= not filled.all()
        means = (prefix[hi] - prefix[lo]) / np.maximum(hi - lo, 1)
        means = np.clip(means, x[np.minimum(lo, n - 1)], x[hi - 1])
        updated = np.where(filled, means, centroids)
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids, emptied


def ref_kmeanspp_init(x, k, rng):
    """_kmeanspp_init drawing each centroid with rng.choice(p=...)."""
    pool = x[rng.choice(x.size, size=min(1024, x.size), replace=False)]
    centroids = [pool[rng.integers(pool.size)]]
    d2 = (pool - centroids[0]) ** 2
    while len(centroids) < k:
        total = d2.sum()
        if total > 0.0:
            centroids.append(pool[rng.choice(pool.size, p=d2 / total)])
            d2 = np.minimum(d2, (pool - centroids[-1]) ** 2)
        elif pool is not x:
            pool = x
            d2 = np.min([(x - c) ** 2 for c in centroids], axis=0)
        else:
            centroids.append(x[np.isin(x, centroids, invert=True)][0])
    return np.sort(np.array(centroids))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_TIED | st.floats(-1e6, 1e6), min_size=1, max_size=1500),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeanspp_draws_as_rng_choice_does(values, k, seed):
    # tied values give zero weights; the centroids and the generator's state
    # after the seeding equal rng.choice's
    x = np.sort(np.array(values))
    k = min(k, np.unique(x).size)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _kmeanspp_init(x, k, got_rng)
    assert got.tobytes() == ref_kmeanspp_init(x, k, want_rng).tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestKmeansFitMatchesReference:
    CASES = {
        "normal": lambda rng: rng.normal(size=3000),
        "lognormal": lambda rng: rng.lognormal(sigma=2.0, size=3000),
        "duplicates": lambda rng: rng.choice([0.0, -0.0, 1.0, 2.5, 2.5, 7.0], size=500),
        "levels": lambda rng: rng.integers(0, 12, size=800).astype(float) ** 3,
        "outliers": lambda rng: np.concatenate([rng.normal(size=400), [-1e17, 1e17]]),
        "few": lambda rng: rng.normal(size=7),
        # neighbouring floats: a midpoint rounds onto the upper centroid, whose
        # values then join the lower cell and leave its own empty
        "ulps": lambda rng: rng.choice(1.0 + np.arange(12) * np.spacing(1.0), size=300),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_bit_equal(self, case, k):
        emptied = False
        for seed in range(6):
            values = self.CASES[case](np.random.default_rng(seed))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # k reduced to the distinct count
                got = kmeans_fit(values, k, seed=seed)
            want, e = ref_kmeans_fit(values, k, seed=seed)
            emptied |= e
            assert got.tobytes() == want.tobytes()
        if (case, k) == ("ulps", 20):
            assert emptied  # the case reaches the empty-cell rule

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(_TIED | st.floats(-1e6, 1e6), min_size=1, max_size=200),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_on_any_values(self, values, k, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = kmeans_fit(values, k, seed=seed)
        assert got.tobytes() == ref_kmeans_fit(values, k, seed=seed)[0].tobytes()


def test_distinct_count_needs_no_array_of_the_input_length(monkeypatch):
    # the distinct count runs before the k-means++ seeding, so the traced
    # peak at that call is the count's; the fit sorts its float64 input in place
    n = 1 << 21
    values = np.random.default_rng(0).normal(size=n)
    peaks = []
    seed_centroids = clustering._kmeanspp_init

    def record_peak(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return seed_centroids(*args)

    monkeypatch.setattr(clustering, "_kmeanspp_init", record_peak)
    tracemalloc.start()
    try:
        kmeans_fit(values, 20, seed=0, overwrite_input=True)
    finally:
        tracemalloc.stop()
    assert peaks and peaks[0] < n // 8
