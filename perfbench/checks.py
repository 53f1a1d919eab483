"""Output checks for one benchmark operation.

The checks read only the files an operation wrote and the inputs the
generator made; they do not import the program under test.  Each raises
CheckError naming the first violation it finds.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload

COMPARE_COLUMNS = [
    "method", "seed", "variable", "kl_nats", "occupied_bin_fraction",
    "span_ratio", "tail_capture", "points",
]
HIST_BINS = 100
# provenance entries that legitimately differ between repeats of one config
_UNSTABLE_PROVENANCE = ("phase_seconds", "workers")


class CheckError(Exception):
    """An operation's output is wrong."""


def _only(out_dir: Path, pattern: str) -> Path:
    found = sorted(out_dir.glob(pattern))
    if len(found) != 1:
        raise CheckError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def _stable_provenance(sidecar_path: Path) -> dict:
    provenance = json.loads(sidecar_path.read_text())["provenance"]
    return {k: v for k, v in provenance.items() if k not in _UNSTABLE_PROVENANCE}


def output_digest(spec: Workload, out_dir: Path) -> str:
    """Digest of everything an operation writes that must repeat exactly:
    the payload files, and for subsample the sidecar's stable provenance."""
    h = hashlib.sha256()
    if spec.command == "subsample":
        h.update(_only(out_dir, "*.csv").read_bytes())
        stable = _stable_provenance(_only(out_dir, "*.json"))
        h.update(json.dumps(stable, sort_keys=True).encode())
    else:
        for path in [out_dir / "comparison.csv", *sorted(out_dir.glob("hist_*.csv"))]:
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_subsample(spec: Workload, out_dir: Path,
                    fields: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """Full check of a `subsample` output; returns the CSV columns and rows.

    Exact row count, no duplicate (t, i, j, k), every row inside the cube
    its `cube_ranges` entry names, normalized coordinates and variable
    values equal to the generated inputs at that grid point.
    """
    csv_path = _only(out_dir, "*.csv")
    with open(csv_path) as fh:
        columns = fh.readline().strip().split(",")
    expected_cols = ["t", "i", "j", "k", "x", "y", "z", *spec.variables]
    if columns != expected_cols:
        raise CheckError(f"CSV columns {columns}, expected {expected_cols}")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    rows = data.shape[0]
    if rows != spec.expected_rows:
        raise CheckError(f"{rows} rows, expected {spec.expected_rows}")

    tijk = data[:, :4]
    if not np.array_equal(tijk, np.round(tijk)):
        raise CheckError("non-integer t, i, j or k")
    t, i, j, k = tijk.astype(np.int64).T
    n = spec.n
    if t.min() < 0 or t.max() >= spec.nt or tijk[:, 1:].min() < 0 or tijk[:, 1:].max() >= n:
        raise CheckError("a (t, i, j, k) lies outside the grid")
    key = ((t * n + i) * n + j) * n + k
    if np.unique(key).size != rows:
        raise CheckError(f"{rows - np.unique(key).size} duplicate (t, i, j, k) rows")

    ranges = np.asarray(_stable_provenance(_only(out_dir, "*.json"))["cube_ranges"],
                        dtype=np.int64).reshape(-1, 4)
    n_cubes = spec.num_hypercubes * spec.nt
    if ranges.shape[0] != n_cubes:
        raise CheckError(f"{ranges.shape[0]} cube_ranges, expected {n_cubes}")
    ts, cube_index, start, end = ranges.T
    if start[0] != 0 or end[-1] != rows or np.any(start[1:] != end[:-1]):
        raise CheckError("cube_ranges do not tile the rows in order")
    if np.any(end - start != spec.num_samples):
        raise CheckError("a cube_ranges entry does not hold num_samples rows")
    per_axis = n // spec.cube
    if cube_index.min() < 0 or cube_index.max() >= spec.cubes_per_step:
        raise CheckError("a cube index lies outside the partition")
    if np.unique(ts * spec.cubes_per_step + cube_index).size != n_cubes:
        raise CheckError("a cube is listed twice in cube_ranges")
    origin = np.stack([cube_index % per_axis, (cube_index // per_axis) % per_axis,
                       cube_index // (per_axis * per_axis)], axis=1) * spec.cube
    row_origin = np.repeat(origin, end - start, axis=0)
    offset = np.stack([i, j, k], axis=1) - row_origin
    if np.any(t != np.repeat(ts, end - start)) or offset.min() < 0 or offset.max() >= spec.cube:
        raise CheckError("a row lies outside the cube its cube_ranges entry names")

    if not np.array_equal(data[:, 4:7], np.stack([i, j, k], axis=1) / (n - 1)):
        raise CheckError("x, y, z differ from i, j, k / (n - 1)")
    for col, var in enumerate(spec.variables, start=7):
        if not np.array_equal(data[:, col], fields[var][t, i, j, k]):
            raise CheckError(f"values of {var!r} differ from the input at their grid point")
    return columns, data


def check_compare(spec: Workload, out_dir: Path, seed: int) -> list[dict]:
    """Full check of a `compare` output; returns the per-(method, seed) rows.

    One row per method, seed and variable plus mean and std rows, each
    run emitting exactly the expected points, metrics in range, and one
    histogram CSV per method whose two densities each integrate to 1.
    """
    with open(out_dir / "comparison.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        table = [dict(zip(header, r)) for r in reader]
    if header != COMPARE_COLUMNS:
        raise CheckError(f"comparison.csv columns {header}, expected {COMPARE_COLUMNS}")
    seeds = [str(s) for s in spec.compare_seeds(seed)]
    expected = sorted(
        (m, s, v) for m in spec.methods for s in [*seeds, "mean", "std"]
        for v in spec.variables
    )
    got = sorted((r["method"], r["seed"], r["variable"]) for r in table)
    if got != expected:
        raise CheckError(f"comparison.csv rows {got}, expected {expected}")
    runs = [r for r in table if r["seed"] in seeds]
    for r in runs:
        if int(r["points"]) != spec.expected_rows:
            raise CheckError(f"{r['method']}/{r['seed']}: {r['points']} points, "
                             f"expected {spec.expected_rows}")
        kl = float(r["kl_nats"])
        if not (math.isfinite(kl) and kl >= 0.0):
            raise CheckError(f"{r['method']}/{r['seed']}: kl_nats {kl}")
        for col in ("occupied_bin_fraction", "span_ratio", "tail_capture"):
            if not 0.0 <= float(r[col]) <= 1.0:
                raise CheckError(f"{r['method']}/{r['seed']}: {col} {r[col]}")

    names = sorted(p.name for p in out_dir.glob("hist_*.csv"))
    if names != sorted(f"hist_{m}.csv" for m in spec.methods):
        raise CheckError(f"histogram files {names}")
    for name in names:
        hist = np.loadtxt(out_dir / name, delimiter=",", skiprows=1, ndmin=2)
        if hist.shape != (HIST_BINS, 4):
            raise CheckError(f"{name}: shape {hist.shape}, expected ({HIST_BINS}, 4)")
        widths = hist[:, 1] - hist[:, 0]
        if np.any(widths <= 0) or np.any(hist[:, 2:] < 0):
            raise CheckError(f"{name}: non-increasing bins or negative density")
        for col in (2, 3):
            mass = float(np.sum(hist[:, col] * widths))
            if abs(mass - 1.0) > 1e-9:
                raise CheckError(f"{name}: density column {col} integrates to {mass}")
    timing = json.loads((out_dir / "comparison_timing.json").read_text())
    if len(timing) != len(table):
        raise CheckError(f"comparison_timing.json has {len(timing)} entries, expected {len(table)}")
    return runs
