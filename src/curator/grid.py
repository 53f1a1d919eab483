"""Dataset model, file ingestion, hypercube partitioning, and run configuration.

A dataset is a set of named scalar fields on a regular 3D (+time) grid.
2D cases are stored with a degenerate z axis (nz = 1).  Raw binary files
are headerless little-endian IEEE-754 reals in x-fastest (column-major)
order, one file per variable per timestep, named ``<var>_<timestep>.bin``.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import yaml

VALID_METHODS = ("full", "random", "stratified", "lhs", "uips", "maxent")
VALID_HYPERCUBE_METHODS = ("maxent", "random")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class IngestionError(ValueError):
    """Dataset files are missing, malformed, or contain non-finite values."""


@dataclass(frozen=True)
class GridDims:
    """Grid-point counts per axis plus timestep count and dimensionality."""

    nx: int
    ny: int
    nz: int = 1
    nt: int = 1
    dims: int = 3

    def __post_init__(self):
        for name in ("nx", "ny", "nz", "nt"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dims not in (2, 3):
            raise ValueError(f"dims must be 2 or 3, got {self.dims}")
        if self.dims == 2 and self.nz != 1:
            raise ValueError("2D grids must have nz = 1")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.nt, self.nx, self.ny, self.nz)

    @property
    def points_per_step(self) -> int:
        return self.nx * self.ny * self.nz


@dataclass
class GridDataset:
    """Named scalar fields of shape (nt, nx, ny, nz) with variable roles.
    ``timestep_ids`` are the file timesteps of the time axis, by default 0..nt-1."""

    dims: GridDims
    fields: dict[str, np.ndarray]
    input_vars: list[str]
    output_vars: list[str]
    cluster_var: str
    timestep_ids: list[int] | None = None

    def __post_init__(self):
        ids = range(self.dims.nt) if self.timestep_ids is None else self.timestep_ids
        self.timestep_ids = [int(t) for t in ids]
        if len(ids) != self.dims.nt:
            raise ValueError(f"{len(ids)} timestep ids for {self.dims.nt} timesteps")
        for name in self.role_vars():
            if name not in self.fields:
                raise ValueError(f"role variable {name!r} missing from field map")
        for name, arr in self.fields.items():
            if arr.shape != self.dims.shape:
                raise ValueError(
                    f"field {name!r} has shape {arr.shape}, expected {self.dims.shape}"
                )
            if not np.all(np.isfinite(arr)):
                flat = int(np.argmin(np.isfinite(arr)))
                idx = tuple(int(i) for i in np.unravel_index(flat, arr.shape))
                raise IngestionError(f"non-finite value in field {name!r} at index {idx}")

    def role_vars(self) -> list[str]:
        """Input, output, and cluster variables, deduplicated in order."""
        seen: dict[str, None] = {}
        for name in [*self.input_vars, *self.output_vars, self.cluster_var]:
            seen.setdefault(name)
        return list(seen)

    def positions(self, timesteps: str | list[int]) -> list[int]:
        """Time-axis positions of timestep ids, in order; "all" gives every position."""
        if timesteps == "all":
            return list(range(self.dims.nt))
        for t in timesteps:
            if int(t) not in self.timestep_ids:
                raise ConfigError(f"timestep {t} not in the dataset {self.timestep_ids}")
        return [self.timestep_ids.index(int(t)) for t in timesteps]


@dataclass
class HypercubeBlock:
    """An axis-aligned sub-block of the grid at one time-axis position;
    ``values`` are views into the dataset's fields."""

    origin: tuple[int, int, int]
    extents: tuple[int, int, int]
    timestep: int
    values: dict[str, np.ndarray]
    index: int = 0  # position in the partition ordering

    @property
    def volume(self) -> int:
        sx, sy, sz = self.extents
        return sx * sy * sz

    def local_to_global(self, local_flat: np.ndarray) -> np.ndarray:
        """Map x-fastest flat indices within the block to (i, j, k) grid indices."""
        sx, sy, sz = self.extents
        local_flat = np.asarray(local_flat, dtype=np.int64)
        i = local_flat % sx
        j = (local_flat // sx) % sy
        k = local_flat // (sx * sy)
        return np.stack(
            [i + self.origin[0], j + self.origin[1], k + self.origin[2]], axis=1
        )

    def flat_values(self, var: str) -> np.ndarray:
        """Block values of one variable in x-fastest order."""
        return self.values[var].reshape(-1, order="F")


@dataclass
class RunConfig:
    """Everything needed to drive one sampling run, parsed from YAML."""

    # shared / dataset section
    dtype: str = "sst-binary"
    path: str = ""
    dims: int = 3
    nx: int = 1
    ny: int = 1
    nz: int = 1
    input_vars: list[str] = field(default_factory=list)
    output_vars: list[str] = field(default_factory=list)
    cluster_var: str = ""
    gravity: str = "z"
    timesteps: str | list[int] = "all"
    nxskip: int = 1
    nyskip: int = 1
    nzskip: int = 1
    precision: int = 8
    fileprefix: str = "H{hypercubes}-C{num_hypercubes}-X{method}-ns{num_samples}-window{window}"
    # subsample section
    hypercubes: str = "random"
    method: str = "random"
    num_hypercubes: int = 1
    num_samples: int | None = None
    num_clusters: int = 20
    nxsl: int = 32
    nysl: int = 32
    nzsl: int = 32
    strata: list[int] = field(default_factory=lambda: [4, 4, 4])
    uips_bins: int = 20
    # execution
    seed: int | str = 0
    workers: int = 1
    # train section is retained verbatim but functionally inert
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in VALID_METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; valid: {', '.join(VALID_METHODS)}"
            )
        if self.hypercubes not in VALID_HYPERCUBE_METHODS:
            raise ConfigError(
                f"unknown hypercubes method {self.hypercubes!r}; "
                f"valid: {', '.join(VALID_HYPERCUBE_METHODS)}"
            )
        for name in ("nx", "ny", "nz", "nxskip", "nyskip", "nzskip", "nxsl", "nysl", "nzsl",
                     "num_hypercubes", "uips_bins", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not (isinstance(self.strata, (list, tuple)) and len(self.strata) == 3
                and all(isinstance(s, int) and s >= 1 for s in self.strata)):
            raise ConfigError(f"strata must be three positive integers, got {self.strata}")
        if self.seed != "unseeded" and not str(self.seed).isdecimal():
            raise ConfigError(f"seed must be an integer >= 0 or 'unseeded', got {self.seed!r}")
        if self.timesteps != "all" and len(set(self.timesteps)) != len(self.timesteps):
            raise ConfigError(f"timesteps must not repeat, got {self.timesteps}")
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.precision not in (4, 8):
            raise ConfigError(f"precision must be 4 or 8, got {self.precision}")
        if self.num_samples is not None:
            cube_volume = self.nxsl * self.nysl * self.nzsl
            if not 1 <= self.num_samples <= cube_volume:
                raise ConfigError(
                    f"num_samples must be in [1, {cube_volume}] "
                    f"(cube volume), got {self.num_samples}"
                )
        if self.method == "stratified":
            # every cube has exactly the cube extents: partitioning drops residual points
            if any(s > e for s, e in zip(self.strata, self.cube_extents)):
                raise ConfigError(
                    f"strata {self.strata} exceed the cube extents {list(self.cube_extents)}"
                )
            n_strata = int(np.prod(self.strata))
            if self.num_samples is not None and self.num_samples < n_strata:
                raise ConfigError(
                    f"strata {self.strata} make {n_strata} strata, above "
                    f"num_samples {self.num_samples}"
                )

    @property
    def cube_extents(self) -> tuple[int, int, int]:
        return (self.nxsl, self.nysl, self.nzsl)

    def format_fileprefix(self) -> str:
        window = self.train.get("window", 1) if isinstance(self.train, dict) else 1
        return self.fileprefix.format(
            hypercubes=self.hypercubes,
            num_hypercubes=self.num_hypercubes,
            method=self.method,
            num_samples=self.num_samples,
            window=window,
        )


_SHARED_KEYS = (
    "dtype path dims nx ny nz input_vars output_vars cluster_var gravity "
    "timesteps nxskip nyskip nzskip precision fileprefix seed workers"
).split()
SUBSAMPLE_KEYS = (
    "hypercubes method num_hypercubes num_samples num_clusters "
    "nxsl nysl nzsl strata uips_bins seed workers"
).split()


def parse_config(text: str) -> RunConfig:
    """Parse a YAML run configuration into a RunConfig.

    The document must contain a ``shared`` section and at least one of
    ``subsample`` / ``train``.  Unknown keys under ``train`` are retained
    but ignored.
    """
    doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a YAML mapping")
    if "shared" not in doc:
        raise ConfigError("missing required section: shared")
    if "subsample" not in doc and "train" not in doc:
        raise ConfigError("config needs at least one of: subsample, train")
    shared = doc.get("shared") or {}
    subsample = doc.get("subsample") or {}
    train = doc.get("train") or {}

    kwargs: dict = {}
    for key in _SHARED_KEYS:
        if key in shared:
            kwargs[key] = shared[key]
    for key in SUBSAMPLE_KEYS:
        if key in subsample:
            kwargs[key] = subsample[key]
    if "path" in subsample:
        kwargs["path"] = subsample["path"]
    kwargs["train"] = dict(train)

    for req in ("dims", "nx", "ny"):
        if req not in kwargs:
            raise ConfigError(f"missing required key: {req}")
    if kwargs["dims"] == 3 and "nz" not in kwargs:
        raise ConfigError("missing required key: nz")
    for role in ("input_vars", "output_vars"):
        if role in kwargs and isinstance(kwargs[role], str):
            kwargs[role] = [kwargs[role]]
    if isinstance(kwargs.get("cluster_var"), list):
        kwargs["cluster_var"] = kwargs["cluster_var"][0]
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig back to YAML; inverse of parse_config."""
    d = asdict(config)
    shared = {k: d[k] for k in _SHARED_KEYS if k not in ("seed", "workers")}
    subsample = {k: d[k] for k in SUBSAMPLE_KEYS}
    doc = {"shared": shared, "subsample": subsample}
    if d["train"]:
        doc["train"] = d["train"]
    return yaml.safe_dump(doc, sort_keys=False)


def _element_dtype(precision: int) -> np.dtype:
    return np.dtype("<f8" if precision == 8 else "<f4")


def _read_raw_field(path: Path, nx: int, ny: int, nz: int, precision: int) -> np.ndarray:
    dtype = _element_dtype(precision)
    expected = nx * ny * nz * dtype.itemsize
    if not path.exists():
        raise IngestionError(f"dataset file not found: {path}")
    actual = path.stat().st_size
    if actual != expected:
        raise IngestionError(
            f"{path}: size mismatch, expected {expected} bytes "
            f"({nx}x{ny}x{nz} x {dtype.itemsize}), got {actual}"
        )
    raw = np.fromfile(path, dtype=dtype)
    return raw.reshape((nx, ny, nz), order="F").astype(np.float64, copy=False)


def _discover_timesteps(path: Path, var: str) -> list[int]:
    pattern = re.compile(rf"^{re.escape(var)}_(\d+)\.bin$")
    steps = sorted(
        int(m.group(1)) for p in path.iterdir() if (m := pattern.match(p.name))
    )
    if not steps:
        raise IngestionError(f"no files matching {var}_<timestep>.bin under {path}")
    return steps


def load_dataset(config: RunConfig) -> GridDataset:
    """Load all role variables from disk, applying per-axis skip strides.

    Two loads of the same files yield bit-identical arrays.  NaN or Inf
    values are rejected when the GridDataset is built.
    """
    role_vars: dict[str, None] = {}
    for name in [*config.input_vars, *config.output_vars, config.cluster_var]:
        if name:
            role_vars.setdefault(name)
    if not role_vars:
        raise ConfigError("no role variables configured")
    path = Path(config.path)

    if config.dtype == "csv":
        return _load_csv_dataset(config, path, list(role_vars))

    if not path.is_dir():
        raise IngestionError(f"dataset path is not a directory: {path}")
    if config.timesteps == "all":
        steps = _discover_timesteps(path, next(iter(role_vars)))
    else:
        steps = [int(t) for t in config.timesteps]

    sx, sy, sz = config.nxskip, config.nyskip, config.nzskip
    fields: dict[str, np.ndarray] = {}
    for var in role_vars:
        snaps = []
        for ts in steps:
            arr = _read_raw_field(
                path / f"{var}_{ts}.bin", config.nx, config.ny, config.nz, config.precision
            )
            snaps.append(arr[::sx, ::sy, ::sz])
        fields[var] = np.stack(snaps, axis=0)

    first = next(iter(fields.values()))
    dims = GridDims(
        nx=first.shape[1], ny=first.shape[2], nz=first.shape[3],
        nt=first.shape[0], dims=config.dims,
    )
    return GridDataset(
        dims=dims, fields=fields,
        input_vars=list(config.input_vars),
        output_vars=list(config.output_vars),
        cluster_var=config.cluster_var,
        timestep_ids=steps,
    )


def _load_csv_dataset(config: RunConfig, path: Path, role_vars: list[str]) -> GridDataset:
    # Header row of variable names, one row per grid point in x-fastest order.
    if not path.exists():
        raise IngestionError(f"dataset file not found: {path}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_expected = config.nx * config.ny
    if data.shape[0] != n_expected:
        raise IngestionError(
            f"{path}: row count mismatch, expected {n_expected} ({config.nx}x{config.ny}), "
            f"got {data.shape[0]}"
        )
    fields = {}
    for var in role_vars:
        if var not in header:
            raise IngestionError(f"column {var!r} missing from {path}")
        col = data[:, header.index(var)]
        arr = col.reshape((config.nx, config.ny, 1), order="F")[None, ...]
        fields[var] = arr[:, :: config.nxskip, :: config.nyskip, :]
    first = next(iter(fields.values()))
    dims = GridDims(nx=first.shape[1], ny=first.shape[2], nz=1, nt=1, dims=2)
    return GridDataset(
        dims=dims, fields=fields,
        input_vars=list(config.input_vars),
        output_vars=list(config.output_vars),
        cluster_var=config.cluster_var,
    )


def block_counts(dims: GridDims, extents: tuple[int, int, int]) -> tuple[int, int, int]:
    """Number of whole cubes per axis for the given extents (remainder dropped)."""
    sx, sy, sz = extents
    if sx < 1 or sy < 1 or sz < 1:
        raise ValueError(f"extents must be >= 1 per axis, got {extents}")
    if sx > dims.nx or sy > dims.ny or sz > dims.nz:
        raise ValueError(
            f"extents {extents} exceed grid ({dims.nx}, {dims.ny}, {dims.nz})"
        )
    return (dims.nx // sx, dims.ny // sy, dims.nz // sz)


def num_blocks(dims: GridDims, extents: tuple[int, int, int]) -> int:
    bx, by, bz = block_counts(dims, extents)
    return bx * by * bz


def extract_block(
    dataset: GridDataset,
    origin: tuple[int, int, int],
    extents: tuple[int, int, int],
    timestep: int,
    index: int = 0,
) -> HypercubeBlock:
    """View one sub-block of the dataset at a time-axis position."""
    i0, j0, k0 = origin
    sx, sy, sz = extents
    d = dataset.dims
    if not (0 <= i0 and i0 + sx <= d.nx and 0 <= j0 and j0 + sy <= d.ny
            and 0 <= k0 and k0 + sz <= d.nz):
        raise ValueError(
            f"block origin {origin} extents {extents} out of bounds for grid "
            f"({d.nx}, {d.ny}, {d.nz})"
        )
    if not 0 <= timestep < d.nt:
        raise ValueError(f"timestep {timestep} out of range [0, {d.nt})")
    values = {
        var: dataset.fields[var][timestep, i0:i0 + sx, j0:j0 + sy, k0:k0 + sz]
        for var in dataset.role_vars()
    }
    return HypercubeBlock(
        origin=(i0, j0, k0), extents=(sx, sy, sz), timestep=timestep,
        values=values, index=index,
    )


def partition_hypercubes(
    dataset: GridDataset, extents: tuple[int, int, int], timestep: int
) -> list[HypercubeBlock]:
    """Tile the largest extent-aligned prefix of the grid with disjoint blocks.

    Ordering is deterministic: x-fastest row-major over block indices.
    Residual boundary points that do not fill a whole cube are dropped
    with a warning.
    """
    d = dataset.dims
    bx, by, bz = block_counts(d, extents)
    sx, sy, sz = extents
    covered = (bx * sx) * (by * sy) * (bz * sz)
    dropped = d.points_per_step - covered
    if dropped:
        warnings.warn(
            f"grid ({d.nx}, {d.ny}, {d.nz}) not divisible by cube extents {extents}; "
            f"dropping {dropped} residual boundary points",
            stacklevel=2,
        )
    blocks = []
    index = 0
    for kz in range(bz):
        for jy in range(by):
            for ix in range(bx):
                blocks.append(
                    extract_block(
                        dataset, (ix * sx, jy * sy, kz * sz), extents, timestep, index
                    )
                )
                index += 1
    return blocks
