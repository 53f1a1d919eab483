from dataclasses import replace

import numpy as np
import pytest

from curator.grid import GridDataset, GridDims, RunConfig
from curator.metrics import (
    COMPARISON_COLUMNS,
    compare_methods,
    comparison_to_csv,
    cost_estimate,
    coverage_report,
    histogram_comparison_csv,
    histogram_pdf,
)
from curator.samplers import run_pipeline


def make_dataset(nx=8, seed=0):
    rng = np.random.default_rng(seed)
    return GridDataset(
        dims=GridDims(nx=nx, ny=nx, nz=nx, nt=1, dims=3),
        fields={"u": rng.normal(size=(1, nx, nx, nx))},
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


class TestHistogramPdf:
    def test_uniform_data_density(self):
        # density of U(0, 2) is 0.5 everywhere
        vals = np.linspace(0.0, 2.0, 10001)
        h = histogram_pdf(vals, bins=10, value_range=(0.0, 2.0))
        np.testing.assert_allclose(h.densities, 0.5, rtol=0.01)
        assert h.count == 10001

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        h = histogram_pdf(rng.normal(size=5000), bins=37)
        assert abs(h.probabilities.sum() - 1.0) < 1e-9

    def test_integral_is_one(self):
        rng = np.random.default_rng(1)
        h = histogram_pdf(rng.lognormal(size=2000), bins=50)
        assert abs(np.sum(h.densities * h.widths) - 1.0) < 1e-9

    def test_occupied_fraction(self):
        h = histogram_pdf(np.array([0.05, 0.95]), bins=10, value_range=(0.0, 1.0))
        assert h.occupied_fraction == 0.2

    def test_out_of_range_values_dropped(self):
        h = histogram_pdf(np.array([0.5, 5.0]), bins=4, value_range=(0.0, 1.0))
        assert h.probabilities.sum() == pytest.approx(1.0)

    def test_constant_data(self):
        h = histogram_pdf(np.full(10, 3.0), bins=5)
        assert h.probabilities.sum() == pytest.approx(1.0)
        assert h.occupied_fraction == 0.2

    def test_empty_and_invalid(self):
        h = histogram_pdf(np.array([]), bins=4)
        assert h.count == 0 and np.all(h.densities == 0.0)
        with pytest.raises(ValueError, match="bins"):
            histogram_pdf(np.ones(3), bins=0)
        with pytest.raises(ValueError, match="hi > lo"):
            histogram_pdf(np.ones(3), bins=4, value_range=(1.0, 1.0))


class TestCoverageReport:
    def test_full_sample_is_near_perfect(self):
        ds = make_dataset()
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=8, nysl=8, nzsl=8, num_hypercubes=1, method="full", seed=0,
        )
        sample = run_pipeline(cfg, ds)
        report = coverage_report(sample, {"u": ds.fields["u"].ravel()})
        m = report.per_variable["u"]
        assert m["kl_full_to_sample"] < 1e-9
        assert m["span_ratio"] == 1.0
        assert m["tail_capture"] == 1.0

    def test_metric_ranges(self):
        ds = make_dataset()
        sample = make_sample(dataset=ds)
        report = coverage_report(sample, {"u": ds.fields["u"].ravel()})
        m = report.per_variable["u"]
        assert m["kl_full_to_sample"] >= 0.0
        assert 0.0 <= m["occupied_bin_fraction"] <= 1.0
        assert 0.0 <= m["span_ratio"] <= 1.0
        assert 0.0 <= m["tail_capture"] <= 1.0

    def test_narrow_sample_penalized(self):
        # a sample concentrated in the middle of the value range scores
        # strictly worse than one spanning it
        full = np.linspace(-3.0, 3.0, 4096)
        cols = ["t", "i", "j", "k", "x", "y", "z", "u"]

        def fake_sample(values):
            data = np.zeros((values.size, 8))
            data[:, 7] = values
            from curator.samplers import SampleSet
            return SampleSet(columns=cols, data=data)

        narrow = coverage_report(
            fake_sample(np.linspace(-0.5, 0.5, 200)), {"u": full}
        ).per_variable["u"]
        wide = coverage_report(
            fake_sample(np.linspace(-3.0, 3.0, 200)), {"u": full}
        ).per_variable["u"]
        assert narrow["kl_full_to_sample"] > wide["kl_full_to_sample"]
        assert narrow["span_ratio"] < wide["span_ratio"]
        assert narrow["occupied_bin_fraction"] < wide["occupied_bin_fraction"]
        assert narrow["tail_capture"] == 0.0 and wide["tail_capture"] == 1.0

    def test_missing_variable(self):
        ds = make_dataset()
        sample = make_sample(dataset=ds)
        with pytest.raises(ValueError, match="missing"):
            coverage_report(sample, {"zeta": ds.fields["u"].ravel()})


class TestCompareMethods:
    def test_row_schema(self):
        ds = make_dataset()
        cfg = RunConfig(
            nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=4, nysl=4, nzsl=4, num_hypercubes=4, num_samples=16,
            strata=[2, 2, 2], seed=0,
        )
        rows, full_ref, first_samples = compare_methods(cfg, ds, ["random", "lhs"], [0, 1])
        h_full = histogram_pdf(ds.fields["u"].ravel(), 100)
        np.testing.assert_array_equal(full_ref.histogram.edges, h_full.edges)
        np.testing.assert_array_equal(full_ref.histogram.densities, h_full.densities)
        first_lhs = run_pipeline(replace(cfg, method="lhs", seed=0), ds)
        np.testing.assert_array_equal(first_samples["lhs"], first_lhs.var_values("u"))
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


class TestHistogramComparisonCsv:
    def test_schema_and_lengths(self, tmp_path):
        rng = np.random.default_rng(0)
        full = rng.normal(size=2000)
        histogram_comparison_csv(histogram_pdf(full, 25), full[:100], tmp_path / "h.csv")
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
