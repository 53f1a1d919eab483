"""Workload definitions and the seeded input generator.

Each workload is one `curator` command on one synthetic dataset.  The
generator writes the dataset as raw little-endian `.bin` files plus a
YAML config; the program under test sees only those files.  The same
seed gives byte-identical files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset recipe plus the command run on it."""

    name: str
    kind: str  # "taylor_green" (u, v, w, wz) or "lognormal" (s)
    n: int  # grid points per axis
    nt: int  # timesteps, one file per variable per timestep
    precision: int  # bytes per value on disk: 8 or 4
    command: str  # "subsample" or "compare"
    hypercubes: str
    method: str
    cube: int  # cube edge in grid points
    num_hypercubes: int
    num_samples: int
    workers: int
    methods: tuple[str, ...] = ()  # compare only
    n_seeds: int = 0  # compare only: seeds s, s+1, ...

    @property
    def variables(self) -> tuple[str, ...]:
        return ("u", "v", "w", "wz") if self.kind == "taylor_green" else ("s",)

    @property
    def cluster_var(self) -> str:
        return self.variables[-1]

    @property
    def input_vars(self) -> tuple[str, ...]:
        return self.variables[:-1] if self.kind == "taylor_green" else self.variables

    @property
    def cubes_per_step(self) -> int:
        return (self.n // self.cube) ** 3

    @property
    def expected_rows(self) -> int:
        """Rows of one pipeline run: cubes x samples x timesteps."""
        return self.num_hypercubes * self.num_samples * self.nt

    @property
    def bytes_on_disk(self) -> int:
        return self.n**3 * self.nt * len(self.variables) * self.precision

    def size_note(self) -> str:
        """Input size as recorded in the workload's `why` in BENCHMARK.json."""
        return (
            f"{self.n**3 * self.nt} grid pts, {self.bytes_on_disk} B on disk, "
            f"{self.num_hypercubes} of {self.cubes_per_step} cubes/step, "
            f"{self.expected_rows} rows"
        )

    def cli_args(self, config_path: Path, out_dir: Path, seed: int,
                 workers: int | None = None) -> list[str]:
        """Arguments for `curator.cli.main` that run one operation."""
        args = [self.command, str(config_path), "--output-dir", str(out_dir),
                "--workers", str(self.workers if workers is None else workers)]
        if self.command == "compare":
            args += ["--methods", ",".join(self.methods),
                     "--seeds", ",".join(str(s) for s in self.compare_seeds(seed))]
        return args

    def compare_seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.n_seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        # Phase 2 (per-cube k-means and KL graph) and the CSV writer dominate.
        Workload(
            name="tg128-maxent", kind="taylor_green", n=128, nt=1, precision=8,
            command="subsample", hypercubes="maxent", method="maxent",
            cube=32, num_hypercubes=16, num_samples=3277, workers=1,
        ),
        # Phase 1 dominates: the pairwise-KL graph over 343 cube histograms.
        Workload(
            name="tg112-cubes343", kind="taylor_green", n=112, nt=1, precision=8,
            command="subsample", hypercubes="maxent", method="random",
            cube=16, num_hypercubes=64, num_samples=410, workers=1,
        ),
        # Baseline samplers, float32 ingest over several timesteps, one fork
        # pool per timestep per pipeline run; clustering and the graph idle.
        Workload(
            name="ln96x4-compare-w2", kind="lognormal", n=96, nt=4, precision=4,
            command="compare", hypercubes="random", method="random",
            cube=32, num_hypercubes=8, num_samples=3277, workers=2,
            methods=("random", "stratified", "lhs", "uips"), n_seeds=2,
        ),
    )
}


def make_fields(spec: Workload, seed: int) -> dict[str, np.ndarray]:
    """The workload's dataset as (nt, n, n, n) arrays in the on-disk dtype.

    Taylor-Green: the single-mode vortex array with a seeded phase shift
    per axis, so cube contents differ between seeds.  Lognormal: i.i.d.
    draws, one independent stream per timestep.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), spec.n, spec.nt]))
    dtype = np.dtype("<f8" if spec.precision == 8 else "<f4")
    n = spec.n
    if spec.kind == "taylor_green":
        fields = {v: np.empty((spec.nt, n, n, n), dtype=dtype) for v in spec.variables}
        grid = 2.0 * np.pi * np.arange(n) / n
        for t in range(spec.nt):
            px, py, pz = rng.uniform(0.0, 2.0 * np.pi, size=3)
            sx, cx = np.sin(grid + px), np.cos(grid + px)
            sy, cy = np.sin(grid + py), np.cos(grid + py)
            cz = np.cos(grid + pz)
            fields["u"][t] = sx[:, None, None] * cy[None, :, None] * cz[None, None, :]
            fields["v"][t] = -cx[:, None, None] * sy[None, :, None] * cz[None, None, :]
            fields["w"][t] = 0.0
            fields["wz"][t] = 2.0 * sx[:, None, None] * sy[None, :, None] * cz[None, None, :]
        return fields
    if spec.kind == "lognormal":
        s = np.empty((spec.nt, n, n, n), dtype=dtype)
        for t in range(spec.nt):
            s[t] = rng.lognormal(0.0, 1.0, size=(n, n, n))
        return {"s": s}
    raise ValueError(f"unknown workload kind {spec.kind!r}")


def config_text(spec: Workload, data_dir: Path, seed: int) -> str:
    shared = {
        "dtype": "sst-binary", "dims": 3, "nx": spec.n, "ny": spec.n, "nz": spec.n,
        "input_vars": list(spec.input_vars),
        "output_vars": spec.cluster_var, "cluster_var": spec.cluster_var,
        "precision": spec.precision, "seed": int(seed), "workers": spec.workers,
    }
    subsample = {
        "path": str(data_dir), "hypercubes": spec.hypercubes, "method": spec.method,
        "num_hypercubes": spec.num_hypercubes, "num_samples": spec.num_samples,
        "nxsl": spec.cube, "nysl": spec.cube, "nzsl": spec.cube,
    }
    return yaml.safe_dump({"shared": shared, "subsample": subsample}, sort_keys=False)


def generate(spec: Workload, seed: int, data_dir: Path) -> tuple[Path, dict[str, np.ndarray]]:
    """Write the workload's files under data_dir and return the config path
    and the fields as float64, as the program reads them."""
    data_dir.mkdir(parents=True, exist_ok=True)
    fields = make_fields(spec, seed)
    for var, arr in fields.items():
        for t in range(spec.nt):
            # headerless, x-fastest (column-major) order
            arr[t].reshape(-1, order="F").tofile(data_dir / f"{var}_{t}.bin")
    config_path = data_dir / "case.yaml"
    config_path.write_text(config_text(spec, data_dir, seed))
    return config_path, {v: a.astype(np.float64, copy=False) for v, a in fields.items()}
