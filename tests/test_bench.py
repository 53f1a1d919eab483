import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from curator.bench import (
    ScalingResult,
    detect_knee,
    parallel_map,
    run_scaling_study,
)
from curator.grid import GridDataset, GridDims, RunConfig
from curator.metrics import compare_methods
from curator.samplers import run_pipeline
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


def make_config(**kw):
    defaults = dict(
        nx=8, ny=8, nz=8, input_vars=["u"], output_vars=["u"], cluster_var="u",
        nxsl=4, nysl=4, nzsl=4, num_hypercubes=4, method="random",
        num_samples=8, seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def _square(x):
    return x * x


ONE_WORKER_RUN = """
import sys

import curator.cli
from curator.grid import RunConfig
from curator.samplers import run_pipeline
from curator.synthetic import gen_taylor_green

config = RunConfig(
    nx=8, ny=8, nz=8, input_vars=["u", "v", "w"], output_vars=["wz"], cluster_var="wz",
    nxsl=4, nysl=4, nzsl=4, hypercubes="maxent", num_hypercubes=4, method="maxent",
    num_samples=8, num_clusters=2, seed=0, workers=1,
)
assert len(run_pipeline(config, gen_taylor_green((8, 8, 8)))) == 4 * 8
print(sorted(name for name in sys.modules if name.partition(".")[0] == "multiprocessing"))
"""


def test_a_one_worker_run_never_imports_multiprocessing():
    # parallel_map imports it only to start a pool, so a 1-worker run's
    # memory holds none of it; a fresh interpreter sees every import
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", ONE_WORKER_RUN],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestParallelMap:
    def test_serial_matches_builtin_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(37))
        serial = parallel_map(_square, items, workers=1)
        parallel = parallel_map(_square, items, workers=3)
        assert parallel == serial

    def test_order_preserved_with_closures(self):
        offset = 100

        def shifted(x):
            return x + offset

        out = parallel_map(shifted, list(range(10)), workers=2)
        assert out == [x + 100 for x in range(10)]

    def test_array_payloads(self):
        def rowify(i):
            return np.full(3, i, dtype=float)

        out = parallel_map(rowify, [0, 1, 2, 3], workers=2)
        np.testing.assert_array_equal(np.stack(out), np.repeat(np.arange(4.0), 3).reshape(4, 3))

    def test_empty_and_single(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [5], workers=4) == [25]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warnings_reach_the_caller_once_in_first_seen_order(self, workers):
        def warn(i):
            warnings.warn(f"odd {i % 2}", UserWarning if i < 4 else RuntimeWarning)
            return i

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parallel_map(warn, list(range(6)), workers) == list(range(6))
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "odd 0"), (UserWarning, "odd 1"),
            (RuntimeWarning, "odd 0"), (RuntimeWarning, "odd 1"),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_warning_filtered_into_an_error_raises_in_the_work_unit(self, workers):
        def warn(i):
            warnings.warn("unit", UserWarning)
            raise AssertionError("the warning did not raise")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="unit"):
                parallel_map(warn, [0, 1], workers)


class TestWorkerWarnings:
    """A warning raised in Phase 2 reaches the caller once, at any worker
    count: uips falls back on every 8^3 cube, whose w is constant."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entry", ["run_pipeline", "compare_methods"])
    def test_one_warning_per_message(self, entry, workers):
        ds = gen_taylor_green((32, 32, 32))
        cfg = RunConfig(
            nx=32, ny=32, nz=32, input_vars=ds.input_vars, output_vars=ds.output_vars,
            cluster_var=ds.cluster_var, method="uips", nxsl=8, nysl=8, nzsl=8,
            num_hypercubes=4, num_samples=64, seed=0, workers=workers,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if entry == "run_pipeline":
                run_pipeline(cfg, ds)
            else:
                compare_methods(cfg, ds, ["uips", "random"], [0, 1])
        assert [str(w.message) for w in caught] == [
            "degenerate feature range for ['w']; falling back to random sampling"
        ]


class TestDetectKnee:
    def rows(self, effs):
        return [(2**i, 1.0, e * 2**i, e) for i, e in enumerate(effs)]

    def test_first_subthreshold_count(self):
        rows = self.rows([1.0, 0.9, 0.45, 0.2])
        assert detect_knee(rows) == 4

    def test_no_knee(self):
        assert detect_knee(self.rows([1.0, 0.9, 0.8])) is None

    def test_custom_threshold(self):
        rows = self.rows([1.0, 0.85, 0.7])
        assert detect_knee(rows, threshold=0.9) == 2

    def test_requires_three_rows(self):
        with pytest.raises(ValueError, match="3 rows"):
            detect_knee(self.rows([1.0, 0.4]))

    def test_unsorted_input(self):
        rows = list(reversed(self.rows([1.0, 0.9, 0.4, 0.3])))
        assert detect_knee(rows) == 4


class TestScalingResult:
    def test_csv_schema(self, tmp_path):
        r = ScalingResult(
            workers=[1, 2], wall_seconds=[2.0, 1.1],
            speedup=[1.0, 1.818182], efficiency=[1.0, 0.909091],
        )
        r.to_csv(tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "workers,wall_seconds,speedup,efficiency"
        assert lines[1].startswith("1,2.000000,1.000000,1.000000")


class TestRunScalingStudy:
    def test_study_shape_and_reference(self):
        result = run_scaling_study(
            make_config(), make_dataset(), [1, 2], repeats=1
        )
        assert result.workers == [1, 2]
        assert result.speedup[0] == 1.0
        assert result.efficiency[0] == 1.0
        assert all(t > 0 for t in result.wall_seconds)
        assert result.knee_workers is None  # only 2 counts: knee undefined

    def test_knee_populated_with_three_counts(self):
        result = run_scaling_study(
            make_config(), make_dataset(), [1, 2, 4], repeats=1
        )
        assert result.knee_workers is None or result.knee_workers in (2, 4)

    def test_requires_worker_one(self):
        with pytest.raises(ValueError, match="include 1"):
            run_scaling_study(make_config(), make_dataset(), [2, 4])

    def test_requires_positive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_scaling_study(make_config(), make_dataset(), [1, 2], repeats=0)
