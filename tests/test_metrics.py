import pickle
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curator import metrics, samplers
from curator.clustering import search_sorted
from curator.entropy import bin_edges
from curator.grid import ConfigError, GridDataset, GridDims, RunConfig
from curator.metrics import (
    COMPARISON_COLUMNS,
    PdfHistogram,
    compare_methods,
    comparison_to_csv,
    cost_estimate,
    coverage_report,
    full_reference,
    histogram_comparison_csv,
    score_sample,
    _percentile,
    _score_cell,
)
from curator.samplers import SampleSet, run_pipeline, select_cubes
from curator.synthetic import gen_taylor_green


def make_dataset(nx=8, seed=0):
    rng = np.random.default_rng(seed)
    return GridDataset(
        dims=GridDims(nx=nx, ny=nx, nz=nx, nt=1, dims=3),
        fields={("u", 0): rng.normal(size=(nx, nx, nx))},
        input_vars=["u"],
        output_vars=["u"],
        cluster_var="u",
    )


def make_sample(method="random", num_samples=32, seed=0, dataset=None):
    cfg = RunConfig(
        nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
        nxsl=4, nysl=4, nzsl=4, num_hypercubes=4, method=method,
        num_samples=num_samples, strata=[2, 2, 2], seed=seed,
    )
    return run_pipeline(cfg, dataset if dataset is not None else make_dataset())


def sample_of(values):
    """A sample whose variable u holds the given values."""
    data = np.zeros((len(values), 8))
    data[:, 7] = values
    return SampleSet(columns=["t", "i", "j", "k", "x", "y", "z", "u"], data=data)


def np_pdf(values, edges):
    """np.histogram's density histogram of the values on the given edges."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return PdfHistogram(edges=edges, densities=np.histogram(values, edges, density=True)[0],
                        count=values.size)


class TestHistogramPdf:
    """The density histograms that full_reference builds for the full data
    and score_sample for a sample on the same bins."""

    def test_uniform_data_density(self):
        # density of U(0, 2) is 0.5 everywhere
        vals = np.linspace(0.0, 2.0, 10001)
        h = full_reference([vals], bins=10).histogram
        np.testing.assert_allclose(h.densities, 0.5, rtol=0.01)
        assert h.count == 10001

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        full = rng.normal(size=5000)
        ref = full_reference([full], bins=37)
        h = score_sample(sample_of(full[:300]), {"u": ref}).histograms["u"]
        for hist in (ref.histogram, h):
            assert abs(hist.probabilities.sum() - 1.0) < 1e-9

    def test_integral_is_one(self):
        rng = np.random.default_rng(1)
        full = rng.lognormal(size=2000)
        ref = full_reference([full], bins=50)
        h = score_sample(sample_of(full[::7]), {"u": ref}).histograms["u"]
        for hist in (ref.histogram, h):
            assert abs(np.sum(hist.densities * hist.widths) - 1.0) < 1e-9

    def test_occupied_fraction(self):
        ref = full_reference([np.linspace(0.0, 1.0, 11)], bins=10)
        h = score_sample(sample_of([0.05, 0.95]), {"u": ref}).histograms["u"]
        assert h.occupied_fraction == 0.2

    def test_constant_data(self):
        # at 2^60, v + 1 rounds back to v; at -2^53, [v, v + 1] has no room for 5 bins
        for value in (3.0, 2.0**60, -2.0**53):
            ref = full_reference([np.full(10, value)], bins=5)
            h = score_sample(sample_of(np.full(10, value)), {"u": ref}).histograms["u"]
            for hist in (ref.histogram, h):
                assert hist.probabilities.sum() == pytest.approx(1.0)
                assert hist.occupied_fraction == 0.2
            assert np.array_equal(ref.histogram.densities, h.densities)

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError, match="bins"):
            full_reference([np.ones(3)], bins=0)
        with pytest.raises(ValueError, match="empty"):
            score_sample(sample_of([]), {"u": full_reference([np.ones(3)])})


def ref_full_reference(full, bins):
    """np.histogram of a raveled copy on bin_edges' edges, and a mask of the
    tails beyond np.percentile's 1st and 99th percentiles."""
    full = np.asarray(full, dtype=np.float64).ravel()
    h_full = np_pdf(full, bin_edges(full, bins))
    q01, q99 = np.percentile(full, [1.0, 99.0])
    tail_points = full[(full < q01) | (full > q99)]
    tail_bins = np.clip(np.searchsorted(h_full.edges, tail_points, side="right") - 1, 0, bins - 1)
    return h_full, np.bincount(tail_bins, minlength=bins)


class TestFullReference:
    @given(
        st.lists(
            st.one_of(
                st.integers(-5, 5).map(float),  # ties
                st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            ),
            min_size=1, max_size=80,
        ),
        st.integers(1, 40),
        st.booleans(),
        st.sampled_from(["contiguous", "strided", "fortran"]),
        st.sampled_from([np.float64, np.float32]),
    )
    @example([2.5], 3, False, "contiguous", np.float64)
    @example([1.0, -1.0], 1, False, "strided", np.float64)
    @example([0.0, 4.0, 4.0], 4, False, "fortran", np.float64)
    @example([0.1, 0.7, 0.3], 7, False, "contiguous", np.float32)
    @example([0.0, 2.2250738585072014e-308], 2, False, "contiguous", np.float64)  # 1e-308 bins
    @settings(max_examples=300, deadline=None)
    def test_matches_the_unsorted_reference(self, values, bins, constant, layout, dtype):
        values = np.array(values[:1] * len(values) if constant else values, dtype=dtype)
        if values.min() < values.max():
            # each interior edge is also a value, so the bin boundaries are hit;
            # in float32 the edges round to values just beside them
            values = np.concatenate([values, bin_edges(values, bins)[1:-1].astype(dtype)])
        pair = np.stack([values, values[::-1]])
        full = {
            "contiguous": values,
            "strided": pair.T[:, 0],  # a view with a stride of two values
            "fortran": np.asfortranarray(pair),  # memory order is not C order
        }[layout]
        h_ref, tails_ref = ref_full_reference(full, bins)
        # the whole array, and the same array split into two parts
        for parts in ([full], np.array_split(full, 2)):
            ref = full_reference(parts, bins)
            assert np.array_equal(ref.histogram.edges, h_ref.edges)
            assert np.array_equal(ref.histogram.densities, h_ref.densities)
            assert ref.histogram.count == h_ref.count
            assert np.array_equal(ref.tail_counts, tails_ref)

    def test_invalid_bins(self):
        with pytest.raises(ValueError, match="bins"):
            full_reference([np.ones(3)], bins=0)

    def test_range_of_subnormals(self):
        # a bin 5e-324 wide would give an infinite density; [0, 1] is taken instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = full_reference([np.array([0.0, 5e-324])], bins=1).histogram
        assert h.edges.tolist() == [0.0, 1.0] and h.densities.tolist() == [1.0]

    def test_one_bin_past_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\[-1.7e\+308, 1.7e\+308\]"):
                full_reference([np.array([-1.7e308, 1.7e308])], bins=1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_float(self, dtype, sign):
        # its percentiles are the largest value of the dtype, and float32's
        # edges run past it: no search key may overflow into a warning
        values = np.full(3, sign * np.finfo(dtype).max, dtype=dtype)
        ref = full_reference([values], bins=100)
        h_ref, tails_ref = ref_full_reference(values, 100)
        assert np.array_equal(ref.histogram.densities, h_ref.densities)
        assert np.array_equal(ref.tail_counts, tails_ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["fortran", "strided", "subset"])
    def test_allocates_one_copy_of_the_field(self, dtype, layout):
        field = np.random.default_rng(0).lognormal(size=(2, 64, 48, 64)).astype(dtype)
        parts = {
            "fortran": [np.asfortranarray(field)],
            "strided": [field[:, ::2]],
            "subset": [field[1], field[0]],  # per-timestep views, as compare passes them
        }[layout]
        tracemalloc.start()
        try:
            full_reference(parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sum(p.nbytes for p in parts)


class TestScoreSample:
    @given(
        st.lists(
            st.one_of(
                st.integers(-5, 5).map(float),  # ties
                st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            ),
            min_size=1, max_size=80,
        ),
        st.integers(1, 40),
        st.sampled_from([np.float64, np.float32]),
        st.integers(0, 2**32 - 1),
    )
    @example([0.0, 1.0], 4, np.float64, 0)
    @example([0.1, 0.7, 0.3], 7, np.float32, 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_np_histogram_on_the_reference_edges(self, values, bins, dtype, seed):
        full = np.array(values, dtype=dtype)
        if full.min() < full.max():
            # each interior edge, rounded into the dtype, is also a value
            full = np.concatenate([full, bin_edges(full, bins)[1:-1].astype(dtype)])
        ref = full_reference([full], bins)
        edges = ref.histogram.edges
        rng = np.random.default_rng(seed)
        sampled = rng.choice(full, size=int(rng.integers(1, full.size + 1)), replace=False)
        h = score_sample(sample_of(sampled), {"u": ref}).histograms["u"]
        want = np_pdf(sampled, edges)
        assert np.array_equal(h.edges, edges)
        assert np.array_equal(h.densities, want.densities)
        assert h.count == want.count


def _data(kind, n, dtype, rng):
    """n values of one kind: spread, ties, constant, or near 1e30 and 1e-30."""
    if kind == "ties":
        return rng.integers(-3, 4, n).astype(dtype)
    if kind == "constant":
        return np.full(n, 0.3, dtype)
    scale = {"spread": 1.0, "huge": 1e30, "tiny": 1e-30}[kind]
    return (rng.lognormal(size=n) * rng.choice([-scale, scale], n)).astype(dtype)


class TestOrderStatistics:
    """full_reference's percentiles and counts, taken from the sorted copy in
    the data's dtype, against np.percentile and searchsorted on the widened
    copy, bit for bit."""

    KINDS = ["spread", "ties", "constant", "huge", "tiny"]

    @staticmethod
    def _check(x, bins=7):
        xs = np.sort(x)
        wide = xs.astype(np.float64)
        qs = [_percentile(xs, q) for q in (1.0, 99.0)]
        assert np.array(qs).tobytes() == np.percentile(x.astype(np.float64), [1.0, 99.0]).tobytes()
        # the keys full_reference searches, and keys just beside each value
        keys = np.concatenate([
            bin_edges(wide, bins), qs, wide,
            np.nextafter(wide, np.inf), np.nextafter(wide, -np.inf),
        ])
        for side in ("left", "right"):
            assert np.array_equal(search_sorted(xs, keys, side), wide.searchsorted(keys, side=side))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_small_n(self, kind, dtype):
        rng = np.random.default_rng(1)
        for n in range(1, 401):
            self._check(_data(kind, n, dtype, rng))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_larger_random_n(self, kind, dtype):
        rng = np.random.default_rng(2)
        for n in rng.integers(401, 200_000, 12):
            self._check(_data(kind, int(n), dtype, rng), bins=100)


class TestCoverageReport:
    def test_full_sample_is_near_perfect(self):
        ds = make_dataset()
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=8, nysl=8, nzsl=8, num_hypercubes=1, method="full", seed=0,
        )
        sample = run_pipeline(cfg, ds)
        report = coverage_report(sample, {"u": ds.fields["u", 0].ravel()})
        m = report.per_variable["u"]
        assert m["kl_full_to_sample"] < 1e-9
        assert m["span_ratio"] == 1.0
        assert m["tail_capture"] == 1.0

    def test_metric_ranges(self):
        ds = make_dataset()
        sample = make_sample(dataset=ds)
        report = coverage_report(sample, {"u": ds.fields["u", 0].ravel()})
        m = report.per_variable["u"]
        assert m["kl_full_to_sample"] >= 0.0
        assert 0.0 <= m["occupied_bin_fraction"] <= 1.0
        assert 0.0 <= m["span_ratio"] <= 1.0
        assert 0.0 <= m["tail_capture"] <= 1.0

    def test_narrow_sample_penalized(self):
        # a sample concentrated in the middle of the value range scores
        # strictly worse than one spanning it
        full = np.linspace(-3.0, 3.0, 4096)
        narrow = coverage_report(
            sample_of(np.linspace(-0.5, 0.5, 200)), {"u": full}
        ).per_variable["u"]
        wide = coverage_report(
            sample_of(np.linspace(-3.0, 3.0, 200)), {"u": full}
        ).per_variable["u"]
        assert narrow["kl_full_to_sample"] > wide["kl_full_to_sample"]
        assert narrow["span_ratio"] < wide["span_ratio"]
        assert narrow["occupied_bin_fraction"] < wide["occupied_bin_fraction"]
        assert narrow["tail_capture"] == 0.0 and wide["tail_capture"] == 1.0

    def test_range_that_overflows(self):
        # hi - lo of the full data, and of the full sample, is past the largest float
        full = np.array([-1.7e308, 0.0, 1.7e308])
        whole = coverage_report(sample_of(full), {"u": full}).per_variable["u"]
        half = coverage_report(sample_of(full[:2]), {"u": full}).per_variable["u"]
        assert whole["span_ratio"] == 1.0 and whole["kl_full_to_sample"] == 0.0
        assert half["span_ratio"] == 0.5

    def test_missing_variable(self):
        ds = make_dataset()
        sample = make_sample(dataset=ds)
        with pytest.raises(ValueError, match="missing"):
            coverage_report(sample, {"zeta": ds.fields["u", 0].ravel()})


class TestCompareMethods:
    @pytest.mark.parametrize("named, overrides, methods", [
        ("cluster_var ''", dict(cluster_var=""), ["random"]),
        ("cluster_var 'p'", dict(cluster_var="p"), ["lhs"]),
        ("input_vars 'p'", dict(input_vars=["u", "p"]), ["random", "uips"]),
    ], ids=["empty-cluster-var", "absent-cluster-var", "uips-input-var"])
    def test_a_role_the_dataset_lacks_is_named(self, named, overrides, methods):
        # the result holds the cluster variable's histograms, so it is always read
        cfg = RunConfig(**{**dict(nx=8, ny=8, nz=8, input_vars=["u"], cluster_var="u",
                                  nxsl=4, nysl=4, nzsl=4, num_hypercubes=2, num_samples=8),
                           **overrides})
        with pytest.raises(ConfigError, match=named):
            compare_methods(cfg, make_dataset(), methods, [0])

    def test_row_schema(self):
        ds = make_dataset()
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=4, nysl=4, nzsl=4, num_hypercubes=4, num_samples=16,
            strata=[2, 2, 2], seed=0,
        )
        rows, h_full, histograms = compare_methods(cfg, ds, ["random", "lhs"], [0, 1])
        u = ds.fields["u", 0].ravel()
        h_ref = np_pdf(u, bin_edges(u, 100))
        np.testing.assert_array_equal(h_full.edges, h_ref.edges)
        np.testing.assert_array_equal(h_full.densities, h_ref.densities)
        first_lhs = run_pipeline(replace(cfg, method="lhs", seed=0), ds)
        h_lhs = np_pdf(first_lhs.var_values("u"), h_ref.edges)
        np.testing.assert_array_equal(histograms["lhs"].densities, h_lhs.densities)
        # per method: 2 seeds x 1 variable + mean + std rows
        assert len(rows) == 2 * (2 + 2)
        assert set(rows[0]) == set(COMPARISON_COLUMNS)
        stats = [(r["method"], r["seed"]) for r in rows]
        assert ("random", "mean") in stats and ("lhs", "std") in stats
        mean_row = next(r for r in rows if r["method"] == "random" and r["seed"] == "mean")
        cell_kls = [
            r["kl_nats"] for r in rows
            if r["method"] == "random" and isinstance(r["seed"], int)
        ]
        assert mean_row["kl_nats"] == pytest.approx(np.mean(cell_kls))

    def test_rows_carry_the_seed_each_cell_ran(self):
        # 'unseeded' passed the seed rule and then failed int(); "2" was written as a string
        cfg = RunConfig(nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
                        nxsl=4, nysl=4, nzsl=4, num_hypercubes=2, num_samples=8)
        rows, _, _ = compare_methods(cfg, make_dataset(), ["random"], ["unseeded", "2"])
        drawn, two = (r["seed"] for r in rows[:2])
        assert isinstance(drawn, int) and two == 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["random", "stratified", "lhs", "uips", "maxent"])
    def test_cell_scores_as_the_full_table_does(self, method, workers):
        # a cell scores its role columns alone: the same rows, point count and
        # histogram as score_sample of sample_cubes' whole table
        rng = np.random.default_rng(3)
        fields = {(var, t): rng.lognormal(size=(8, 8, 8)) for var in "uv" for t in range(2)}
        ds = GridDataset(dims=GridDims(nx=8, ny=8, nz=8, nt=2, dims=3), fields=fields,
                         input_vars=["u"], output_vars=["v"], cluster_var="u",
                         timestep_ids=[4, 6])
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["v"], cluster_var="u",
            nxsl=4, nysl=4, nzsl=4, hypercubes="maxent", num_hypercubes=5, num_samples=16,
            num_clusters=3, strata=[2, 2, 2], seed=11, workers=workers,
        )
        references = {var: full_reference([ds.fields[var, t] for t in range(2)]) for var in "uv"}
        selection = select_cubes(cfg, ds)
        rows, histogram = _score_cell(cfg, ds, references, (method, 11, selection, 0.0))
        table = samplers.sample_cubes(replace(cfg, method=method), ds, selection)
        report = score_sample(table, references)
        scores = ["occupied_bin_fraction", "span_ratio", "tail_capture"]
        assert [{c: r[c] for c in ["method", "seed", "variable", "kl_nats", *scores, "points"]}
                for r in rows] == [
            {"method": method, "seed": 11, "variable": var, "kl_nats": m["kl_full_to_sample"],
             **{c: m[c] for c in scores}, "points": len(table)}
            for var, m in report.per_variable.items()
        ]
        assert np.array_equal(histogram.densities, report.histograms["u"].densities)
        assert histogram.count == len(table) == 2 * 5 * 16

    def test_cell_result_carries_no_sample(self):
        # a cell returns scores and one histogram, not its rows' values
        ds = make_dataset(nx=32)
        cfg = RunConfig(
            nx=32, ny=32, nz=32, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=16, nysl=16, nzsl=16, num_hypercubes=4, num_samples=4096, seed=0,
        )
        references = {"u": full_reference([ds.fields["u", 0]])}
        result = _score_cell(cfg, ds, references, ("random", 0, select_cubes(cfg, ds), 0.0))
        assert result[0][0]["points"] >= 10_000
        assert len(pickle.dumps(result)) < 16 * 1024

    def test_phase1_runs_once_per_seed_and_timestep(self, monkeypatch):
        rng = np.random.default_rng(1)
        ds = GridDataset(
            dims=GridDims(nx=8, ny=8, nz=8, nt=2),
            fields={("u", t): rng.lognormal(size=(8, 8, 8)) for t in range(2)},
            input_vars=["u"], output_vars=["u"], cluster_var="u",
        )
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=4, nysl=4, nzsl=4, hypercubes="maxent", num_hypercubes=3,
            num_samples=16, num_clusters=4, seed=0,
        )
        calls = []
        real = samplers.select_cubes_maxent

        def counting(parts, *args):  # the timestep whose field the parts view
            calls.append(next(t for t in range(2) if np.shares_memory(parts[0], ds.fields["u", t])))
            return real(parts, *args)

        monkeypatch.setattr(samplers, "select_cubes_maxent", counting)
        compare_methods(cfg, ds, ["random", "lhs", "maxent"], [5, 6])
        assert sorted(calls) == [0, 0, 1, 1]  # 2 seeds x 2 timesteps, not x 3 methods

    def test_sampling_seconds_include_the_seed_phase1(self, monkeypatch):
        ds = make_dataset()
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=4, nysl=4, nzsl=4, num_hypercubes=4, num_samples=16, seed=0,
        )
        phase1 = {}
        real = metrics.select_cubes

        def slow_select(config, dataset):
            t0 = time.perf_counter()
            if config.seed == 3:  # a Phase 1 far slower than any cell's Phase 2
                time.sleep(0.2)
            work = real(config, dataset)
            phase1[config.seed] = time.perf_counter() - t0
            return work

        monkeypatch.setattr(metrics, "select_cubes", slow_select)
        rows, _, _ = compare_methods(cfg, ds, ["random", "lhs"], [3, 4])
        cells = [r for r in rows if isinstance(r["seed"], int)]
        assert len(cells) == 4
        for row in cells:
            assert row["sampling_seconds"] >= phase1[row["seed"]]

    def test_empty_inputs_rejected(self):
        ds = make_dataset()
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=4, nysl=4, nzsl=4, num_hypercubes=2, num_samples=8, seed=0,
        )
        with pytest.raises(ValueError, match="method"):
            compare_methods(cfg, ds, [], [0])
        with pytest.raises(ValueError, match="seed"):
            compare_methods(cfg, ds, ["random"], [])

    def test_csv_output(self, tmp_path):
        rows = [
            {
                "method": "random", "seed": 0, "variable": "u", "kl_nats": 0.5,
                "occupied_bin_fraction": 0.25, "span_ratio": 1.0,
                "tail_capture": 0.75, "sampling_seconds": 0.01, "points": 64,
            }
        ]
        comparison_to_csv(rows, tmp_path / "c.csv")
        header, row = (tmp_path / "c.csv").read_text().splitlines()
        assert "sampling_seconds" not in header
        assert row == "random,0,u,0.5,0.25,1,0.75,64"


class TestRunChecksBeforePhase1:
    """run_pipeline and compare_methods check a run on the dataset's own
    grid before Phase 1, each rule with the config's one implementation,
    and name the key."""

    @staticmethod
    def config(**overrides):
        # gen_taylor_green's roles are u, v, w and wz; 64 cubes of 8^3
        return RunConfig(**{**dict(nx=32, ny=32, nz=32, input_vars=["u"], output_vars=["u"],
                                   cluster_var="u", nxsl=8, nysl=8, nzsl=8, hypercubes="maxent",
                                   num_hypercubes=4, num_samples=16, num_clusters=4),
                            **overrides})

    @staticmethod
    def run(entry, config, methods):
        dataset = gen_taylor_green((32, 32, 32))
        if entry == "run_pipeline":
            return run_pipeline(config, dataset)
        return compare_methods(config, dataset, methods, [0, 1])

    @pytest.fixture()
    def phase1_calls(self, monkeypatch):
        """The Phase 1 draws made, by selection rule."""
        calls = []
        for name in ("select_cubes_maxent", "select_hypercubes_random"):
            real = getattr(samplers, name)

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(samplers, name, counting)
        return calls

    @pytest.mark.parametrize("entry, methods, needs", [
        ("run_pipeline", ["random"], "random"), ("compare_methods", ["full", "lhs"], "lhs"),
    ], ids=["run_pipeline", "compare_methods"])
    def test_missing_num_samples(self, phase1_calls, entry, methods, needs):
        # it once raised a ValueError in the first Phase 2 unit, after all of Phase 1
        with pytest.raises(ConfigError, match=f"^num_samples is required for method '{needs}'$"):
            self.run(entry, self.config(num_samples=None), methods)
        assert phase1_calls == []

    @pytest.mark.parametrize("message, overrides, methods", [
        (r"strata \[8, 8, 8\] exceed the cube extents \[4, 4, 4\]",
         dict(strata=[8, 8, 8], nxsl=4, nysl=4, nzsl=4), ["random", "stratified"]),
        (r"strata \[4, 4, 2\] make 32 strata, above num_samples 16",
         dict(strata=[4, 4, 2]), ["stratified"]),
        ("input_vars: uips bins 1 to 4 variables, got 0", dict(input_vars=[]), ["uips", "lhs"]),
        ("unknown method 'sobol'", dict(), ["random", "sobol"]),
    ], ids=["strata-exceed-cube", "strata-above-num-samples", "uips-no-input-vars",
            "unknown-method"])
    def test_compared_method_settings(self, phase1_calls, message, overrides, methods):
        # a compared method's settings were once checked only inside its cells
        with pytest.raises(ConfigError, match=f"^{message}"):
            self.run("compare_methods", self.config(**overrides), methods)
        assert phase1_calls == []

    @pytest.mark.parametrize("methods", [["random"], ["random", "lhs", "maxent"]],
                             ids=["random", "random-lhs-maxent"])
    def test_roles_of_a_method_compare_does_not_run(self, methods):
        # p is no role of the dataset, and only the config's own method, uips, reads it
        config = self.config(method="uips", input_vars=["u", "p"])
        rows, _, histograms = self.run("compare_methods", config, methods)
        assert list(histograms) == methods and {r["method"] for r in rows} == set(methods)

    @pytest.fixture()
    def work_calls(self, monkeypatch):
        """The references built and the Phase 1 runs made by compare_methods."""
        calls = []
        for name in ("full_reference", "select_cubes"):
            real = getattr(metrics, name)

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(metrics, name, counting)
        return calls

    @pytest.mark.parametrize("methods, seeds, message", [
        (["random", "random"], [0], r"methods must not repeat, got \['random', 'random'\]"),
        (["random"], [0, 1, 0], r"seeds must not repeat, got \[0, 1, 0\]"),
        (["random"], [0, -1], "seeds must be an integer >= 0 or 'unseeded', got -1"),
        # int() once ran first: 3.7 sampled seed 3 and True seed 1, with rows that said 3.7, True
        (["random"], [3.7], "seeds must be an integer >= 0 or 'unseeded', got 3.7"),
        (["random"], [True], "seeds must be an integer >= 0 or 'unseeded', got True"),
    ], ids=["repeated-method", "repeated-seed", "negative-seed", "float-seed", "bool-seed"])
    def test_methods_and_seeds_are_checked_before_any_work(self, work_calls, methods, seeds,
                                                           message):
        # a repeated method once wrote each of its rows twice (24 rows for 12), and a
        # negative seed was met only when Phase 1 reached it, after every reference
        with pytest.raises(ConfigError, match=f"^{message}$"):
            compare_methods(self.config(), gen_taylor_green((32, 32, 32)), methods, seeds)
        assert work_calls == []

    @pytest.mark.parametrize("entry", ["run_pipeline", "compare_methods"])
    @pytest.mark.parametrize("overrides, message", [
        (dict(nxsl=64), "nxsl 64 exceeds the 32 points of the grid"),
        (dict(nzsl=33), "nzsl 33 exceeds the 32 points of the grid"),
        (dict(num_hypercubes=65), "num_hypercubes 65 exceeds the 64 cubes per timestep"),
    ], ids=["nxsl", "nzsl", "num_hypercubes"])
    def test_cube_errors_name_their_key(self, phase1_calls, entry, overrides, message):
        # the library once raised unnamed ValueErrors, worded unlike the CLI's
        with pytest.raises(ConfigError, match=f"^{message}$"):
            self.run(entry, self.config(**overrides), ["random"])
        assert phase1_calls == []


class TestHistogramComparisonCsv:
    def test_schema_and_lengths(self, tmp_path):
        rng = np.random.default_rng(0)
        full = rng.normal(size=2000)
        h_full = np_pdf(full, bin_edges(full, 25))
        h_sample = np_pdf(full[:100], h_full.edges)
        histogram_comparison_csv(h_full, h_sample, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,density_full,density_sample"
        assert len(lines) == 26
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(full.min())


class TestCostEstimate:
    def test_components_add_up(self):
        c = cost_estimate(m=1000, p=1e6, e=100, c_m=2.0)
        assert c["sampling_cost"] == 2.0
        assert c["training_cost_proxy"] == pytest.approx(1e-9 * 1000 * 1e6 * 100)
        assert c["total"] == pytest.approx(c["sampling_cost"] + c["training_cost_proxy"])

    def test_monotone_in_sample_count(self):
        small = cost_estimate(m=100, p=1e6, e=10, c_m=1.0)["total"]
        large = cost_estimate(m=10000, p=1e6, e=10, c_m=1.0)["total"]
        assert large > small

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="c_m"):
            cost_estimate(m=1, p=1, e=1, c_m=-0.1)
