"""Dataset model, file ingestion, hypercube partitioning, and run configuration.

A dataset is a set of named scalar fields on a regular 3D (+time) grid.
2D cases are stored with a degenerate z axis (nz = 1).  Raw binary files
are headerless little-endian IEEE-754 reals in x-fastest (column-major)
order, one file per variable per timestep, named ``<var>_<timestep>.bin``.
"""
from __future__ import annotations

import mmap
import os
import re
import warnings
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np
import yaml

VALID_METHODS = ("full", "random", "stratified", "lhs", "uips", "maxent")
VALID_HYPERCUBE_METHODS = ("maxent", "random")
VALID_DTYPES = ("sst-binary", "csv")


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
    """Named scalar fields with variable roles: ``fields[var, t]`` is the
    (nx, ny, nz) array of ``var`` at time-axis position t.  ``timestep_ids``
    are the file timesteps of those positions, by default 0..nt-1."""

    dims: GridDims
    fields: dict[tuple[str, int], np.ndarray]
    input_vars: list[str]
    output_vars: list[str]
    cluster_var: str
    timestep_ids: list[int] | None = None

    def __post_init__(self):
        ids = range(self.dims.nt) if self.timestep_ids is None else self.timestep_ids
        self.timestep_ids = [int(t) for t in ids]
        if len(ids) != self.dims.nt:
            raise ValueError(f"{len(ids)} timestep ids for {self.dims.nt} timesteps")
        for name in role_vars(self):
            for t in range(self.dims.nt):
                if (name, t) not in self.fields:
                    raise ValueError(f"role variable {name!r} has no field at position {t}")
        for key, arr in self.fields.items():
            if arr.shape != self.dims.shape[1:]:
                raise ValueError(
                    f"field {key!r} has shape {arr.shape}, expected {self.dims.shape[1:]}"
                )

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
    ``values[var]`` is a view into the dataset's ``fields[var, timestep]``."""

    origin: tuple[int, int, int]
    extents: tuple[int, int, int]
    timestep: int
    values: dict[str, np.ndarray]
    index: int = 0  # position in the partition ordering

    @property
    def volume(self) -> int:
        sx, sy, sz = self.extents
        return sx * sy * sz

    def flat_values(self, var: str) -> np.ndarray:
        """Block values of one variable in x-fastest order, as a float64 copy."""
        return flat_copy([self.values[var]], np.float64)


def flat_copy(views: list[np.ndarray], dtype) -> np.ndarray:
    """One new ``dtype`` buffer holding every view's values in turn, each
    read x-fastest (order "F"), which is a field's memory order."""
    out = np.empty(sum(v.size for v in views), dtype)
    offset = 0
    for v in views:
        np.copyto(out[offset:offset + v.size].reshape(v.shape, order="F"), v)
        offset += v.size
    return out


# A read fault maps the cached pages around it in windows of up to this many
# bytes (the kernel's fault-around), so a release widens its span to them.
_RELEASE_ALIGN = max(mmap.PAGESIZE, 1 << 16)
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)  # absent where mmap has no madvise
_byte_bounds = getattr(np, "byte_bounds", None) or np.lib.array_utils.byte_bounds  # numpy 1, 2


def release_pages(views: list[np.ndarray]) -> None:
    """Drop this process's resident pages of the mapped files under ``views``.

    Each view backed by a read-only ``mmap`` covers the byte span from its
    first to its last element, widened to whole fault-around windows.
    Overlapping spans of one mapping merge, and each merged span is given
    back with one ``madvise(MADV_DONTNEED)``.  No value changes: a later
    read faults the pages in again from the page cache.  A view that no
    mapping backs (csv or synthetic data, a field pickled to a ``spawn``
    worker) is skipped, and so is a view of a writable mapping, where a
    dropped copy-on-write page would lose its writes.
    """
    if _DONTNEED is None:
        return
    spans: dict[int, tuple[mmap.mmap, list[tuple[int, int]]]] = {}
    for v in views:
        owner, base = None, v
        while isinstance(base, np.ndarray):
            owner, base = base, base.base
        if isinstance(base, mmap.mmap) and not owner.flags.writeable and v.size:
            spans.setdefault(id(base), (base, []))[1].append(_byte_bounds(v))
    for base, bounds in spans.values():
        origin = np.frombuffer(base, np.uint8).ctypes.data
        merged: list[list[int]] = []
        for lo, hi in sorted(bounds):
            lo = (lo - origin) // _RELEASE_ALIGN * _RELEASE_ALIGN
            hi = -(-(hi - origin) // _RELEASE_ALIGN) * _RELEASE_ALIGN
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        for lo, hi in merged:
            base.madvise(_DONTNEED, lo, hi - lo)


def role_vars(spec) -> list[str]:
    """Input, output, and cluster variables of a dataset or run config,
    deduplicated in order."""
    return list(dict.fromkeys([*spec.input_vars, *spec.output_vars, spec.cluster_var]))


def check_distinct(name: str, values: list) -> None:
    """Reject a list that repeats an entry, in an error that names it ``name``."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} must not repeat, got {values}")


def check_seed(name: str, seed) -> None:
    """The one seed rule, an integer >= 0 or 'unseeded'; its error names ``name``."""
    if seed != "unseeded" and not str(seed).isdecimal():
        raise ConfigError(f"{name} must be an integer >= 0 or 'unseeded', got {seed!r}")


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    # execution; __post_init__ settles seed to an int
    seed: int | str = 0
    workers: int = 1
    # train section, kept verbatim: params and epochs feed the cost proxy,
    # window the fileprefix; other keys are not read
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
        if self.dtype not in VALID_DTYPES:
            raise ConfigError(f"unknown dtype {self.dtype!r}; valid: {', '.join(VALID_DTYPES)}")
        if self.dims not in (2, 3):
            raise ConfigError(f"dims must be 2 or 3, got {self.dims!r}")
        positive = ("nx", "ny", "nz", "nxskip", "nyskip", "nzskip", "nxsl", "nysl", "nzsl",
                    "num_hypercubes", "uips_bins", "workers")
        for name in (*positive, "num_clusters", "num_samples", "dims", "precision"):
            value = getattr(self, name)
            if not (is_int(value) or name == "num_samples" and value is None):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.dims == 2 and self.nz != 1:
            raise ConfigError(f"nz must be 1 for dims 2, got {self.nz}")
        if self.dtype == "csv" and self.dims != 2:  # a csv file holds one 2-D snapshot
            raise ConfigError(f"dims must be 2 for dtype csv, got {self.dims}")
        if not (isinstance(self.strata, (list, tuple)) and len(self.strata) == 3
                and all(is_int(s) and s >= 1 for s in self.strata)):
            raise ConfigError(f"strata must be three positive integers, got {self.strata}")
        # settled once, here: a drawn seed is kept by replace() and recorded
        check_seed("seed", self.seed)
        if self.seed == "unseeded":
            self.seed = int(np.random.SeedSequence().entropy % (2**63))
        self.seed = int(self.seed)
        if not isinstance(self.train, dict):
            raise ConfigError("section train must be a mapping")
        for key in ("params", "epochs"):  # the cost proxy's p and e
            value = self.train.get(key, 0)
            if not (is_number(value) and value >= 0):
                raise ConfigError(f"train.{key} must be a number >= 0, got {value!r}")
        if self.timesteps != "all" and not (isinstance(self.timesteps, list) and self.timesteps
                                            and all(is_int(t) for t in self.timesteps)):
            raise ConfigError(
                f"timesteps must be 'all' or a non-empty list of integers, got {self.timesteps!r}"
            )
        if self.timesteps != "all":
            check_distinct("timesteps", self.timesteps)
        for name in ("input_vars", "output_vars"):
            names = getattr(self, name)
            if not (isinstance(names, list) and all(isinstance(v, str) and v for v in names)):
                raise ConfigError(f"{name} must be a list of non-empty strings, got {names!r}")
        if not isinstance(self.path, str):
            raise ConfigError(f"path must be a string, got {self.path!r}")
        if self.gravity not in ("x", "y", "z"):
            raise ConfigError(f"gravity must be one of x, y, z, got {self.gravity!r}")
        if not isinstance(self.cluster_var, str):
            raise ConfigError(f"cluster_var must be a string, got {self.cluster_var!r}")
        if self.method == "uips" and not 1 <= len(self.input_vars) <= 4:
            raise ConfigError(
                f"input_vars: uips bins 1 to 4 variables, got {len(self.input_vars)}"
            )
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
        try:
            self.format_fileprefix()
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"fileprefix {self.fileprefix!r} does not format: {exc!r}"
            ) from None

    @property
    def cube_extents(self) -> tuple[int, int, int]:
        return (self.nxsl, self.nysl, self.nzsl)

    def strided_dims(self) -> GridDims:
        """One timestep of the grid that load_dataset keeps after the skip strides."""
        return GridDims(*(len(range(0, n, skip)) for n, skip in (
            (self.nx, self.nxskip), (self.ny, self.nyskip), (self.nz, self.nzskip),
        )), dims=self.dims)

    def check_run(self, dims: GridDims, methods: list[str]) -> int:
        """The whole cubes per timestep of the grid ``dims``, once the config
        passes what a run of each of ``methods`` needs before any work: the
        method's own settings (``replace`` checks them), num_samples for
        every method but full, extents within ``dims`` and num_hypercubes
        within its cubes.  A failure is a ConfigError that names its key."""
        for method in methods:
            replace(self, method=method)
            if method != "full" and self.num_samples is None:
                raise ConfigError(f"num_samples is required for method {method!r}")
        for key, extent, n in zip(("nxsl", "nysl", "nzsl"), self.cube_extents, dims.shape[1:]):
            if extent > n:
                raise ConfigError(f"{key} {extent} exceeds the {n} points of the grid")
        cubes = num_blocks(dims, self.cube_extents)
        if self.num_hypercubes > cubes:
            raise ConfigError(
                f"num_hypercubes {self.num_hypercubes} exceeds the {cubes} cubes per timestep"
            )
        return cubes

    def format_fileprefix(self) -> str:
        return self.fileprefix.format(
            hypercubes=self.hypercubes,
            num_hypercubes=self.num_hypercubes,
            method=self.method,
            num_samples=self.num_samples,
            window=self.train.get("window", 1),
        )


# the keys emit_config writes under each section; either section also
# accepts seed, workers and path
_SECTIONS = {
    "shared": ("dtype path dims nx ny nz input_vars output_vars cluster_var gravity "
               "timesteps nxskip nyskip nzskip precision fileprefix").split(),
    "subsample": ("hypercubes method num_hypercubes num_samples num_clusters "
                  "nxsl nysl nzsl strata uips_bins seed workers").split(),
}
_EITHER_SECTION = ("seed", "workers", "path")


def int_list(flag: str, text: str) -> list[int]:
    """Parse a comma-separated integer flag; a bad entry is a ConfigError
    that names the flag."""
    values = []
    for entry in str(text).split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise ConfigError(f"{flag}: {entry!r} is not an integer") from None
    return values


def one_int(flag: str, text: str) -> int:
    """Parse a single-integer flag or variable; errors name it."""
    values = int_list(flag, text)
    if len(values) != 1:
        raise ConfigError(f"{flag} takes one integer, got {text!r}")
    return values[0]


def check_section(name: str, section, keys=None) -> None:
    """Reject a section that is not a mapping or holds a key no reader
    takes, naming the key and the section.  ``keys`` defaults to the
    section's row of ``_SECTIONS`` plus seed, workers and path."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {name} must be a mapping")
    keys = keys or (*_SECTIONS[name], *_EITHER_SECTION)
    unknown = [str(k) for k in section if k not in keys]
    if unknown:
        raise ConfigError(f"unknown {name} key(s): {', '.join(unknown)}")


def load_yaml(text: str):
    """The YAML document in text.  Malformed YAML is a ConfigError that
    names the problem and its line, raised from the YAMLError."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # a ReaderError (a character YAML forbids) has a position, not a mark
        mark = getattr(exc, "problem_mark", None)
        line = mark.line if mark else text.count("\n", 0, getattr(exc, "position", 0))
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"malformed YAML at line {line + 1}: {problem}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse a YAML run configuration into a RunConfig.

    The document must contain a ``shared`` section and at least one of
    ``subsample`` / ``train``.  An unknown key under ``shared`` or
    ``subsample`` is an error; keys under ``train`` are retained, and
    only ``params``, ``epochs`` and ``window`` are read.  The seed is a
    ``seed`` under ``subsample`` or ``shared``, else ``CURATOR_SEED``,
    else 0.
    """
    doc = load_yaml(text)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a YAML mapping")
    if "shared" not in doc:
        raise ConfigError("missing required section: shared")
    if "subsample" not in doc and "train" not in doc:
        raise ConfigError("config needs at least one of: subsample, train")
    shared = doc.get("shared") or {}
    subsample = doc.get("subsample") or {}
    check_section("shared", shared)
    check_section("subsample", subsample)

    # a key set in both sections takes its subsample value
    kwargs: dict = {**shared, **subsample, "train": doc.get("train") or {}}
    if "seed" not in kwargs and os.environ.get("CURATOR_SEED"):
        kwargs["seed"] = one_int("CURATOR_SEED", os.environ["CURATOR_SEED"])
        check_seed("CURATOR_SEED", kwargs["seed"])

    for req in ("dims", "nx", "ny"):
        if req not in kwargs:
            raise ConfigError(f"missing required key: {req}")
    if kwargs["dims"] == 3 and "nz" not in kwargs:
        raise ConfigError("missing required key: nz")
    for role in ("input_vars", "output_vars"):
        if role in kwargs and isinstance(kwargs[role], str):
            kwargs[role] = [kwargs[role]]
    # one scalar is clustered, so only a list of one is read as its entry
    if isinstance(kwargs.get("cluster_var"), list) and len(kwargs["cluster_var"]) == 1:
        kwargs["cluster_var"] = kwargs["cluster_var"][0]
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig back to YAML; inverse of parse_config."""
    d = asdict(config)
    doc = {name: {k: d[k] for k in keys} for name, keys in _SECTIONS.items()}
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
    # mapped read-only in the file's dtype: a kernel widens what it computes on
    return np.memmap(path, dtype, mode="r", shape=(nx, ny, nz), order="F").view(np.ndarray)


# points per slab of the finite scan, which bounds its bool temporary
_SCAN_POINTS = 1 << 20


def _check_finite(var: str, t: int, snap: np.ndarray) -> None:
    """Reject a non-finite value in one timestep's (nx, ny, nz) field of
    ``var``, naming the first such point in index order.

    The scan walks the last axis in slabs of about ``_SCAN_POINTS``
    points.  In an x-fastest file that axis is the slowest, so each slab
    reads one run of the file, whose pages it releases when done.
    """
    step = max(1, _SCAN_POINTS // (snap.shape[0] * snap.shape[1]))
    first = None
    for k0 in range(0, snap.shape[2], step):
        slab = snap[:, :, k0:k0 + step]
        ok = np.isfinite(slab)
        release_pages([slab])
        if not ok.all():
            i, j, k = (int(c) for c in np.argwhere(~ok)[0])  # the slab's first, in C order
            idx = (t, i, j, k0 + k)
            first = idx if first is None else min(first, idx)
    if first is not None:
        raise IngestionError(f"non-finite value in field {var!r} at index {first}")


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

    Each (variable, timestep) file is mapped once and becomes one field:
    a read-only mapping of the file in its on-disk dtype, so loading
    copies no values.  The field is scanned for NaN or Inf at the strided
    points, and the scan releases each slab's pages once it has read
    them, so the loaded field holds none.  Two loads of the same files
    yield bit-identical arrays.
    """
    if not config.cluster_var:
        raise ConfigError("missing required key: cluster_var")
    names = role_vars(config)
    path = Path(config.path)

    if config.dtype == "csv":
        return _load_csv_dataset(config, path, names)

    if not path.is_dir():
        raise IngestionError(f"dataset path is not a directory: {path}")
    if config.timesteps == "all":
        steps = _discover_timesteps(path, names[0])
    else:
        steps = [int(t) for t in config.timesteps]

    fields: dict[tuple[str, int], np.ndarray] = {}
    for var in names:
        for t, ts in enumerate(steps):
            field = _read_raw_field(path / f"{var}_{ts}.bin", config.nx, config.ny, config.nz,
                                    config.precision)
            fields[var, t] = field[::config.nxskip, ::config.nyskip, ::config.nzskip]
            _check_finite(var, t, fields[var, t])

    nx, ny, nz = fields[names[0], 0].shape
    return GridDataset(
        dims=GridDims(nx=nx, ny=ny, nz=nz, nt=len(steps), dims=config.dims),
        fields=fields,
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
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from None
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
        arr = col.reshape((config.nx, config.ny, 1), order="F")
        fields[var, 0] = arr[:: config.nxskip, :: config.nyskip, :]
    for (var, t), arr in fields.items():
        _check_finite(var, t, arr)
    nx, ny, _ = fields[role_vars[0], 0].shape
    return GridDataset(
        dims=GridDims(nx=nx, ny=ny, nz=1, nt=1, dims=2),
        fields=fields,
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
        var: dataset.fields[var, timestep][i0:i0 + sx, j0:j0 + sy, k0:k0 + sz]
        for var in role_vars(dataset)
    }
    return HypercubeBlock(
        origin=(i0, j0, k0), extents=(sx, sy, sz), timestep=timestep,
        values=values, index=index,
    )


def cube_layers(field: np.ndarray, extents: tuple[int, int, int]) -> list[np.ndarray]:
    """One view per z-layer of an (nx, ny, nz) field's whole cubes, shaped
    (sx, sy, sz, bx, by); read x-fastest, a layer lists its cubes in
    partition order.  Splitting an axis of the cube-aligned region never
    copies, so neither does this.  Residual points are left out."""
    (sx, sy, sz), (bx, by, bz) = extents, (n // s for n, s in zip(field.shape, extents))
    region = field[:bx * sx, :by * sy, :bz * sz].reshape((sx, bx, sy, by, sz, bz), order="F")
    return list(region.transpose(5, 0, 2, 4, 1, 3))


def partition_hypercubes(
    dataset: GridDataset, extents: tuple[int, int, int], timestep: int, cubes
) -> list[HypercubeBlock]:
    """The blocks of the given cube indices, in the order given.

    The largest extent-aligned prefix of the grid is tiled with disjoint
    cubes, indexed x-fastest row-major over block indices.  Residual
    boundary points that do not fill a whole cube are dropped with a
    warning.
    """
    d = dataset.dims
    bx, by, bz = block_counts(d, extents)
    sx, sy, sz = extents
    dropped = d.points_per_step - (bx * sx) * (by * sy) * (bz * sz)
    if dropped:
        warnings.warn(
            f"grid ({d.nx}, {d.ny}, {d.nz}) not divisible by cube extents {extents}; "
            f"dropping {dropped} residual boundary points",
            stacklevel=2,
        )
    return [
        extract_block(dataset, (c % bx * sx, c // bx % by * sy, c // (bx * by) * sz),
                      extents, timestep, c)
        for c in map(int, cubes)
    ]
