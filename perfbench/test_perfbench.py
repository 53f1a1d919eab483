"""Self-tests of the benchmark: generator, metric names, output checks.

Run from the repository root with:  python3 -m pytest -q perfbench
They use scaled-down copies of the workloads, so they take seconds.
"""
from __future__ import annotations

import json
import re
import shutil
import time
from dataclasses import replace

import pytest

import run
from checks import CheckError, check_subsample
from workloads import WORKLOADS, generate

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "tg": replace(WORKLOADS["tg128-maxent"], name="tiny-tg", n=32, cube=8,
                  num_hypercubes=5, num_samples=100),
    "compare": replace(WORKLOADS["ln96x4-compare-w2"], name="tiny-compare", n=32, nt=2,
                       cube=16, num_hypercubes=2, num_samples=300),
}


@pytest.fixture(scope="module", autouse=True)
def program():
    assert run.import_program() is None


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    spec = replace(WORKLOADS[name], n=16, cube=8)
    generate(spec, 7, tmp_path / "a")
    generate(spec, 7, tmp_path / "b")
    generate(spec, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a.keys() == b.keys() == c.keys()
    for fname in a:
        if fname.endswith(".bin"):
            assert a[fname] == b[fname]
            # w is identically zero in every Taylor-Green dataset
            assert a[fname] != c[fname] or fname.startswith("w_")


def test_benchmark_json_matches_the_workloads():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)
    for w in BENCH["workloads"]:
        assert WORKLOADS[w["name"]].size_note() in w["why"]
        assert len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_printed_metric_names_are_declared(tmp_path, kind, trace):
    spec = TINY[kind]
    bench_run = run.Run(spec, 3, tmp_path / "run")
    measure = run.traced if trace else run.end_to_end
    metrics, _summary, _spans = measure(bench_run, 0.0, time.perf_counter())
    assert bench_run.failed == 0 and bench_run.reference is not None
    declared = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert len(set(declared)) == len(declared)
    assert sorted(metrics) == sorted(declared)
    assert all(NAME.fullmatch(name) for name in metrics)


def test_wall_norm_scales_each_op_by_the_chunks_around_it(tmp_path, monkeypatch):
    # Reference chunks at twice their reference time: a host at half speed.
    monkeypatch.setattr(run, "calibrate", lambda seconds: [2 * run.REF_CHUNK_S] * 3)
    bench_run = run.Run(TINY["tg"], 3, tmp_path / "run")
    norm, chunks = [], []
    untraced, _ = run.timed_loop(bench_run, 0.0, time.perf_counter(), None, norm, chunks)
    assert bench_run.failed == 0 and len(untraced) == run.MIN_TIMED_OPS
    assert norm == pytest.approx([t / 2 for _, t in untraced])
    assert chunks == [2 * run.REF_CHUNK_S] * 3 * (len(untraced) + 1)


@pytest.fixture(scope="module")
def real_output(tmp_path_factory):
    """A real subsample output of the tiny Taylor-Green workload."""
    spec = TINY["tg"]
    bench_run = run.Run(spec, 5, tmp_path_factory.mktemp("run"))
    out_dir = bench_run.run_dir / "kept"
    assert bench_run.cli.main(bench_run.argv(out_dir)) == 0
    return spec, out_dir, bench_run.fields


def _fault_copy(tmp_path, real_output, edit):
    spec, out_dir, fields = real_output
    faulty = tmp_path / "faulty"
    shutil.copytree(out_dir, faulty)
    csv_path = next(faulty.glob("*.csv"))
    header, *rows = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text(header + "".join(edit(rows)))
    return spec, faulty, fields


def test_check_accepts_the_real_output(real_output):
    spec, out_dir, fields = real_output
    _columns, data = check_subsample(spec, out_dir, fields)
    assert data.shape[0] == spec.expected_rows


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows + rows[-1:], "rows, expected"),  # duplicated row
    (lambda rows: rows[:-1], "rows, expected"),  # dropped row
    (lambda rows: rows[:1] + rows[:1] + rows[2:], "duplicate"),  # count kept
])
def test_check_rejects_a_faulty_copy(tmp_path, real_output, edit, message):
    spec, faulty, fields = _fault_copy(tmp_path, real_output, edit)
    with pytest.raises(CheckError, match=message):
        check_subsample(spec, faulty, fields)


def test_check_rejects_a_value_off_its_grid_point(tmp_path, real_output):
    def nudge(rows):
        cells = rows[0].rstrip("\n").split(",")
        cells[-1] = repr(float(cells[-1]) + 1.0)
        return [",".join(cells) + "\n", *rows[1:]]

    spec, faulty, fields = _fault_copy(tmp_path, real_output, nudge)
    with pytest.raises(CheckError, match="differ from the input"):
        check_subsample(spec, faulty, fields)
