import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from curator import clustering, grid
from curator.grid import (
    ConfigError,
    GridDataset,
    GridDims,
    IngestionError,
    RunConfig,
    emit_config,
    extract_block,
    load_dataset,
    num_blocks,
    parse_config,
    partition_hypercubes,
)

SST_YAML = """
shared:
  dims: 3
  dtype: sst-binary
  input_vars: [u, v, w, r]
  output_vars: p
  cluster_var: pv
  nx: 514
  ny: 512
  nz: 256
  gravity: z
subsample:
  hypercubes: maxent
  num_hypercubes: 32
  method: maxent
  path: /path/to/raw_data/
  num_samples: 3277
  num_clusters: 20
  nxsl: 32
  nysl: 32
  nzsl: 32
train:
  epochs: 1000
  batch: 16
  target: p_full
  window: 1
  arch: MLP_transformer
  sequence: true
"""


def ramp_dataset(nx=8, ny=8, nz=8, nt=1):
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    f = np.broadcast_to((i + j + k).astype(float), (nt, nx, ny, nz)).copy()
    return GridDataset(
        dims=GridDims(nx=nx, ny=ny, nz=nz, nt=nt, dims=3),
        fields={("f", t): f[t] for t in range(nt)},
        input_vars=["f"],
        output_vars=["f"],
        cluster_var="f",
    )


class TestGridDims:
    def test_valid(self):
        d = GridDims(nx=4, ny=4, nz=1, nt=2, dims=2)
        assert d.shape == (2, 4, 4, 1)

    def test_2d_requires_nz_1(self):
        with pytest.raises(ValueError):
            GridDims(nx=4, ny=4, nz=2, dims=2)

    @pytest.mark.parametrize("field", ["nx", "ny", "nz", "nt"])
    def test_nonpositive_rejected(self, field):
        kwargs = dict(nx=2, ny=2, nz=2, nt=1)
        kwargs[field] = 0
        with pytest.raises(ValueError, match=field):
            GridDims(**kwargs)


STRATIFIED_4CUBES = dict(method="stratified", nxsl=4, nysl=4, nzsl=4)


class TestParseConfig:
    def test_sst_style_document(self):
        cfg = parse_config(SST_YAML)
        assert cfg.nx == 514 and cfg.ny == 512 and cfg.nz == 256
        assert cfg.num_hypercubes == 32
        assert cfg.num_samples == 3277
        assert cfg.num_clusters == 20
        assert cfg.method == "maxent" and cfg.hypercubes == "maxent"
        assert cfg.output_vars == ["p"]
        assert cfg.train["epochs"] == 1000

    def test_num_clusters_defaults_to_20(self):
        text = SST_YAML.replace("  num_clusters: 20\n", "")
        assert parse_config(text).num_clusters == 20

    def test_missing_nx_names_key(self):
        text = SST_YAML.replace("  nx: 514\n", "")
        with pytest.raises(ConfigError, match="nx"):
            parse_config(text)

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(SST_YAML.replace("method: maxent", "method: frobnicate"))

    def test_nonpositive_dimension(self):
        with pytest.raises(ConfigError, match="ny"):
            parse_config(SST_YAML.replace("ny: 512", "ny: -1"))

    def test_num_samples_capped_by_cube_volume(self):
        with pytest.raises(ConfigError, match="num_samples"):
            parse_config(SST_YAML.replace("num_samples: 3277", "num_samples: 40000"))

    def test_requires_shared_section(self):
        with pytest.raises(ConfigError, match="shared"):
            parse_config("subsample:\n  method: random\n")

    @pytest.mark.parametrize("key, value", [
        ("nxskip", -1), ("nyskip", 0), ("nzskip", 0), ("uips_bins", 0),
        ("strata", [2, 2]), ("strata", [2, 0, 2]), ("strata", 4),
        ("seed", -1), ("seed", "-1"), ("seed", "abc"), ("timesteps", [0, 0]),
        # a dict value holds every override, for checks that read other keys
        ("strata", dict(STRATIFIED_4CUBES, num_samples=8, strata=[1, 1, 9])),
        ("strata", dict(STRATIFIED_4CUBES, num_samples=8, strata=[2, 2, 3])),
        ("strata", dict(STRATIFIED_4CUBES, num_samples=64, strata=[1, 5, 1])),
        ("dtype", "hdf5"), ("dims", 5), ("nz", dict(dims=2, nz=4)),
        ("fileprefix", "run-{foo}"), ("fileprefix", "run-{0}"),
        ("timesteps", []), ("timesteps", 0), ("timesteps", [0, "1"]),
        ("num_samples", 8.5), ("num_clusters", "x"), ("nx", True), ("workers", 2.0),
        ("train", [1, 2]), ("precision", 8.0), ("dims", 3.0),
        ("input_vars", [1, "s"]), ("output_vars", 5),
        ("output_vars", ["u", ""]), ("cluster_var", 5),
        ("input_vars", dict(method="uips", input_vars=[])),
        ("dims", dict(dtype="csv", dims=3)),
    ])
    def test_bad_value_names_its_key(self, key, value):
        overrides = value if isinstance(value, dict) else {key: value}
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{"nx": 8, "ny": 8, "nz": 8, **overrides})

    @pytest.mark.parametrize("section, key", [("shared", "nxx"), ("subsample", "num_cluster")])
    def test_unknown_key_names_key_and_section(self, section, key):
        text = SST_YAML.replace(f"{section}:\n", f"{section}:\n  {key}: 5\n")
        with pytest.raises(ConfigError, match=f"unknown {section} key.*{key}"):
            parse_config(text)

    @pytest.mark.parametrize("text, named", [
        ("- shared\n- subsample\n", "config must be a YAML mapping"),
        ("shared:\n  dims: 3\n", "at least one of: subsample, train"),
        ("shared:\n  dims: 3\n  nx: 4\n  ny: 4\nsubsample: {}\n", "missing required key: nz"),
    ], ids=["not-a-mapping", "no-subsample-or-train", "no-nz"])
    def test_document_errors_name_what_is_missing(self, text, named):
        with pytest.raises(ConfigError, match=named):
            parse_config(text)

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="shared must be a mapping"):
            parse_config("shared: [dims, nx]\nsubsample:\n  method: random\n")

    def test_subsample_path_and_train_keys_accepted(self):
        cfg = parse_config(SST_YAML)
        assert cfg.path == "/path/to/raw_data/" and cfg.train["arch"] == "MLP_transformer"

    def test_uips_takes_at_most_four_input_vars(self):
        names = ["a", "b", "c", "d", "e"]
        with pytest.raises(ConfigError, match="input_vars.*got 5"):
            RunConfig(nx=8, ny=8, nz=8, input_vars=names, method="uips")
        RunConfig(nx=8, ny=8, nz=8, input_vars=names[:4], method="uips")
        RunConfig(nx=8, ny=8, nz=8, input_vars=names, method="random")

    def test_strata_checked_only_for_stratified(self):
        RunConfig(nx=8, ny=8, nz=8, nxsl=4, nysl=4, nzsl=4, num_samples=8, strata=[1, 1, 9])

    def test_roundtrip(self):
        cfg = parse_config(SST_YAML)
        assert parse_config(emit_config(cfg)) == cfg

    def test_roundtrip_nondefault(self):
        # every key off its default, so a key the section table misses is lost
        cfg = RunConfig(
            path="/data", nx=10, ny=20, nz=30, input_vars=["a"],
            output_vars=["b"], cluster_var="a", gravity="y", timesteps=[0, 2],
            nxskip=2, nyskip=3, nzskip=4, precision=4, fileprefix="run-{method}",
            hypercubes="maxent", method="uips", num_hypercubes=2, num_samples=5,
            num_clusters=7, nxsl=4, nysl=4, nzsl=4, strata=[2, 2, 2], uips_bins=9,
            seed=99, workers=3,
        )
        default = RunConfig()
        # dims 2 needs nz 1, the default, and csv needs dims 2, so dims and
        # dtype are varied on their own
        for c in (cfg, replace(cfg, dims=2, nz=1), replace(cfg, dtype="csv", dims=2, nz=1)):
            assert parse_config(emit_config(c)) == c
        off_default = {f.name for f in fields(RunConfig)
                       if getattr(cfg, f.name) != getattr(default, f.name)}
        assert off_default == {f.name for f in fields(RunConfig)} - {"dims", "dtype", "train"}


class TestConfigSeed:
    def test_int_passthrough(self):
        assert RunConfig(nx=8, ny=8, nz=8, seed=42).seed == 42

    def test_numeric_string(self):
        assert RunConfig(nx=8, ny=8, nz=8, seed="17").seed == 17

    def test_unseeded_draws_entropy(self):
        seeds = {RunConfig(nx=8, ny=8, nz=8, seed="unseeded").seed for _ in range(5)}
        assert len(seeds) > 1

    def test_replace_keeps_the_drawn_seed(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, seed="unseeded")
        assert replace(cfg, method="lhs").seed == cfg.seed


class TestLoadDataset:
    def _write_raw(self, path, arr):
        np.asarray(arr, dtype="<f8").reshape(-1, order="F").tofile(path)

    def _config(self, path, nx=4, ny=3, nz=2, **kw):
        return RunConfig(
            dtype="sst-binary", path=str(path), nx=nx, ny=ny, nz=nz,
            input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=1, nysl=1, nzsl=1, **kw,
        )

    def test_raw_binary_shape_and_order(self, tmp_path):
        arr = np.arange(24, dtype=float).reshape(4, 3, 2, order="F")
        self._write_raw(tmp_path / "u_0.bin", arr)
        ds = load_dataset(self._config(tmp_path))
        assert ds.fields["u", 0].shape == (4, 3, 2)
        np.testing.assert_array_equal(ds.fields["u", 0], arr)

    def test_truncated_file_reports_bytes(self, tmp_path):
        arr = np.arange(24, dtype=float)
        arr.astype("<f8").tofile(tmp_path / "u_0.bin")
        with open(tmp_path / "u_0.bin", "r+b") as fh:
            fh.truncate(24 * 8 - 8)
        with pytest.raises(IngestionError, match="192 bytes.*184"):
            load_dataset(self._config(tmp_path))

    def test_nan_rejected_with_index(self, tmp_path):
        arr = np.zeros((4, 3, 2))
        arr[1, 2, 0] = np.nan
        self._write_raw(tmp_path / "u_0.bin", arr)
        with pytest.raises(IngestionError, match=r"non-finite .*'u' at index \(0, 1, 2, 0\)"):
            load_dataset(self._config(tmp_path))

    def test_nan_on_a_skipped_point_loads(self, tmp_path):
        # only the points the strides keep are checked
        arr = np.zeros((4, 3, 2))
        arr[1, 2, 0] = np.nan
        self._write_raw(tmp_path / "u_0.bin", arr)
        ds = load_dataset(self._config(tmp_path, nxskip=2))
        np.testing.assert_array_equal(ds.fields["u", 0], arr[::2])

    @pytest.mark.parametrize("steps", [1, 2])
    def test_nan_first_in_index_order_is_named(self, tmp_path, monkeypatch, steps):
        monkeypatch.setattr(grid, "_SCAN_POINTS", 1)  # one z plane per slab
        arr = np.zeros((4, 3, 2))
        arr[3, 0, 0] = np.nan  # the scan's first slab meets this one
        arr[0, 0, 1] = np.nan  # index order puts this one first
        for t in range(steps):
            self._write_raw(tmp_path / f"u_{t}.bin", arr if t == steps - 1 else np.zeros_like(arr))
        message = f"non-finite value in field 'u' at index ({steps - 1}, 0, 0, 1)"
        with pytest.raises(IngestionError, match=re.escape(message) + r"\Z"):
            load_dataset(self._config(tmp_path))

    def test_load_leaves_the_scanned_pages(self, tmp_path):
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc/self/status")

        def rss_bytes():
            line = next(ln for ln in status.read_text().splitlines() if ln.startswith("VmRSS:"))
            return int(line.split()[1]) * 1024

        shape = (256, 128, 128)  # 32 MiB of float64
        np.full(shape, 1.5).tofile(tmp_path / "u_0.bin")
        size = (tmp_path / "u_0.bin").stat().st_size
        before = rss_bytes()
        ds = load_dataset(self._config(tmp_path, *shape))
        grown = rss_bytes() - before
        assert ds.fields["u", 0].shape == shape
        # the scan read every page and released each slab's once read
        assert grown < size / 4

    def test_load_maps_each_file_once(self, tmp_path, monkeypatch):
        # the finite scan once read each file through a second mapping of its own
        for t in range(2):
            self._write_raw(tmp_path / f"u_{t}.bin", np.full((4, 3, 2), t))
            self._write_raw(tmp_path / f"s_{t}.bin", np.full((4, 3, 2), -t))
        mapped = []
        memmap = np.memmap

        def counting(filename, *args, **kwargs):
            mapped.append(Path(filename).name)
            return memmap(filename, *args, **kwargs)

        monkeypatch.setattr(np, "memmap", counting)
        ds = load_dataset(replace(self._config(tmp_path), cluster_var="s"))
        assert sorted(mapped) == ["s_0.bin", "s_1.bin", "u_0.bin", "u_1.bin"]
        assert ds.fields["s", 1][0, 0, 0] == -1.0

    def test_release_keeps_the_writes_of_a_copy_on_write_mapping(self, tmp_path):
        # released, a copy-on-write page would read the file's value again
        np.zeros(1 << 16).tofile(tmp_path / "u_0.bin")
        field = np.memmap(tmp_path / "u_0.bin", "<f8", mode="c", shape=(64, 32, 32), order="F")
        field[:, :, ::4] = 7.0
        for k in range(0, 32, 4):
            grid.release_pages(field[:, :, k:k + 4])
        assert (field[:, :, ::4] == 7.0).all() and not field[:, :, 1::4].any()

    def test_load_copies_no_field(self, tmp_path):
        shape, steps = (64, 64, 64), 4
        for t in range(steps):
            np.full(shape, t + 0.5, dtype="<f4").tofile(tmp_path / f"u_{t}.bin")
        tracemalloc.start()
        try:
            ds = load_dataset(self._config(tmp_path, *shape, precision=4))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.dims.nt == steps
        # every timestep is a mapping of its file, not a copy on the heap
        assert held < 0.01 * steps * np.prod(shape) * 4

    @pytest.mark.parametrize("steps", [1, 3])
    def test_fields_keep_the_file_dtype_read_only(self, tmp_path, steps):
        rng = np.random.default_rng(0)
        snaps = [rng.normal(size=(4, 3, 2)).astype("<f4") for _ in range(steps)]
        for t, arr in enumerate(snaps):
            arr.reshape(-1, order="F").tofile(tmp_path / f"u_{t}.bin")
            (2 * arr).reshape(-1, order="F").tofile(tmp_path / f"s_{t}.bin")
        ds = load_dataset(replace(self._config(tmp_path, precision=4), cluster_var="s"))
        # one (nx, ny, nz) array per role variable and timestep
        assert sorted(ds.fields) == sorted((var, t) for var in ("u", "s") for t in range(steps))
        assert sum(f.size for f in ds.fields.values()) == steps * 24 * 2
        for (var, t), field in ds.fields.items():
            assert field.dtype == np.float32 and not field.flags.writeable
            np.testing.assert_array_equal(field, snaps[t] * (2 if var == "s" else 1))
            assert field.strides == np.asfortranarray(snaps[t]).strides  # x-fastest, as on disk
        block = extract_block(ds, (1, 0, 0), (2, 3, 2), steps - 1)
        flat = block.flat_values("u")
        assert flat.dtype == np.float32  # the samplers read float32 data unwidened
        np.testing.assert_array_equal(flat, snaps[-1][1:3].ravel(order="F"))

    def test_loads_are_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        self._write_raw(tmp_path / "u_0.bin", rng.normal(size=(4, 3, 2)))
        cfg = self._config(tmp_path)
        a = load_dataset(cfg).fields["u", 0]
        b = load_dataset(cfg).fields["u", 0]
        assert a.tobytes() == b.tobytes()

    def test_skip_strides(self, tmp_path):
        arr = np.arange(64, dtype=float).reshape(4, 4, 4, order="F")
        self._write_raw(tmp_path / "u_0.bin", arr)
        ds = load_dataset(self._config(tmp_path, nx=4, ny=4, nz=4, nxskip=2))
        assert ds.dims.nx == 2
        np.testing.assert_array_equal(ds.fields["u", 0], arr[::2])

    def test_timestep_ids_come_from_the_files(self, tmp_path):
        rng = np.random.default_rng(0)
        snaps = {t: rng.normal(size=(4, 3, 2)) for t in (5, 7)}
        for t, arr in snaps.items():
            self._write_raw(tmp_path / f"u_{t}.bin", arr)
        ds = load_dataset(self._config(tmp_path))
        assert ds.timestep_ids == [5, 7]
        one = load_dataset(self._config(tmp_path, timesteps=[7]))
        assert one.timestep_ids == [7]
        np.testing.assert_array_equal(one.fields["u", 0], snaps[7])

    def test_missing_timestep_file_is_named(self, tmp_path):
        self._write_raw(tmp_path / "u_0.bin", np.zeros((4, 3, 2)))
        with pytest.raises(IngestionError, match=r"dataset file not found: .*u_5\.bin"):
            load_dataset(self._config(tmp_path, timesteps=[0, 5]))

    def test_no_timestep_file_names_the_pattern_and_directory(self, tmp_path):
        (tmp_path / "v_0.bin").write_bytes(b"")
        with pytest.raises(IngestionError, match=r"no files matching u_<timestep>\.bin under "
                           + re.escape(str(tmp_path))):
            load_dataset(self._config(tmp_path))

    def test_path_that_is_not_a_directory_is_named(self, tmp_path):
        self._write_raw(tmp_path / "u_0.bin", np.zeros((4, 3, 2)))
        with pytest.raises(IngestionError, match=r"not a directory: .*u_0\.bin"):
            load_dataset(self._config(tmp_path / "u_0.bin"))

    @pytest.mark.parametrize("text, named", [
        (None, r"dataset file not found: .*pts\.csv"),
        ("x,y,u\n0,0,1\n1,0,2\n0,1,3\n", r"pts\.csv: row count mismatch, expected 4 \(2x2\), got 3"),
        ("x,y,v\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", r"column 'u' missing from .*pts\.csv"),
    ], ids=["missing", "rows", "column"])
    def test_csv_errors_name_the_file(self, tmp_path, text, named):
        if text is not None:
            (tmp_path / "pts.csv").write_text(text)
        cfg = RunConfig(
            dtype="csv", path=str(tmp_path / "pts.csv"), dims=2, nx=2, ny=2,
            input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=1, nysl=1, nzsl=1,
        )
        with pytest.raises(IngestionError, match=named):
            load_dataset(cfg)

    def test_csv_point_cloud_2d(self, tmp_path):
        nx, ny = 3, 2
        rows = []
        for j in range(ny):
            for i in range(nx):
                rows.append(f"{i},{j},{i + 10 * j},{i - j}")
        (tmp_path / "pts.csv").write_text("x,y,u,v\n" + "\n".join(rows) + "\n")
        cfg = RunConfig(
            dtype="csv", path=str(tmp_path / "pts.csv"), dims=2, nx=nx, ny=ny,
            input_vars=["u", "v"], output_vars=["u"], cluster_var="u",
            nxsl=1, nysl=1, nzsl=1,
        )
        ds = load_dataset(cfg)
        assert ds.dims.nz == 1 and ds.dims.dims == 2
        assert ds.fields["u", 0][2, 1, 0] == 12.0

    @pytest.mark.parametrize("skip", [1, 2])
    def test_csv_and_raw_load_to_the_same_dataset(self, tmp_path, skip):
        nx, ny = 5, 4
        rng = np.random.default_rng(0)
        snap = {var: rng.normal(size=(nx, ny, 1)) for var in ("u", "v")}
        for var, arr in snap.items():
            self._write_raw(tmp_path / f"{var}_0.bin", arr)
        columns = zip(*(arr.reshape(-1, order="F").tolist() for arr in snap.values()))
        (tmp_path / "pts.csv").write_text(
            "u,v\n" + "".join(f"{u!r},{v!r}\n" for u, v in columns))
        shared = dict(dims=2, nx=nx, ny=ny, nxskip=skip, nyskip=skip, input_vars=["u", "v"],
                      output_vars=["v"], cluster_var="u", nxsl=1, nysl=1, nzsl=1)
        raw = load_dataset(RunConfig(dtype="sst-binary", path=str(tmp_path), **shared))
        csv = load_dataset(RunConfig(dtype="csv", path=str(tmp_path / "pts.csv"), **shared))
        assert csv.dims == raw.dims == GridDims(nx=len(range(0, nx, skip)),
                                                ny=len(range(0, ny, skip)), dims=2)
        assert csv.timestep_ids == raw.timestep_ids == [0]
        assert grid.role_vars(csv) == grid.role_vars(raw) and csv.cluster_var == "u"
        assert csv.fields.keys() == raw.fields.keys()
        for key, field in raw.fields.items():
            np.testing.assert_array_equal(csv.fields[key], field)

    def test_csv_nan_rejected_with_index(self, tmp_path):
        (tmp_path / "pts.csv").write_text("x,y,u\n0,0,1\n1,0,2\n0,1,3\n1,1,nan\n")
        cfg = RunConfig(
            dtype="csv", path=str(tmp_path / "pts.csv"), dims=2, nx=2, ny=2,
            input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=1, nysl=1, nzsl=1,
        )
        with pytest.raises(IngestionError, match=r"'u' at index \(0, 1, 1, 0\)"):
            load_dataset(cfg)

    def test_csv_bad_value_names_the_file(self, tmp_path):
        (tmp_path / "pts.csv").write_text("x,y,u\n0,0,1\n1,0,abc\n0,1,3\n1,1,4\n")
        cfg = RunConfig(
            dtype="csv", path=str(tmp_path / "pts.csv"), dims=2, nx=2, ny=2,
            input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=1, nysl=1, nzsl=1,
        )
        with pytest.raises(IngestionError, match=r"pts\.csv: could not convert"):
            load_dataset(cfg)


def all_blocks(ds, extents, timestep=0):
    """Every block of a timestep's partition, in partition order."""
    return partition_hypercubes(ds, extents, timestep, range(num_blocks(ds.dims, extents)))


class TestPartition:
    def test_exact_tiling_64(self):
        ds = ramp_dataset(8, 8, 8)
        blocks = all_blocks(ds, (4, 4, 4))
        assert len(blocks) == 8

    def test_block_count_residual(self):
        # residual planes along x are dropped, mirroring 514 vs 512
        ds = ramp_dataset(10, 8, 8)
        with pytest.warns(UserWarning, match="residual"):
            blocks = all_blocks(ds, (4, 4, 4))
        assert len(blocks) == 2 * 2 * 2
        covered = set()
        for b in blocks:
            for di in range(4):
                for dj in range(4):
                    for dk in range(4):
                        covered.add((b.origin[0] + di, b.origin[1] + dj, b.origin[2] + dk))
        assert len(covered) == 8 * 8 * 8  # pairwise disjoint and exhaustive
        assert all(i < 8 for i, _, _ in covered)

    def test_count_arithmetic_512_cube(self):
        assert num_blocks(GridDims(nx=512, ny=512, nz=256), (32, 32, 32)) == 2048
        assert num_blocks(GridDims(nx=514, ny=512, nz=256), (32, 32, 32)) == 2048

    def test_extents_larger_than_grid(self):
        ds = ramp_dataset(8, 8, 8)
        with pytest.raises(ValueError, match="exceed"):
            partition_hypercubes(ds, (16, 4, 4), 0, [0])

    def test_deterministic_x_fastest_ordering(self):
        ds = ramp_dataset(8, 8, 8)
        blocks = all_blocks(ds, (4, 4, 4))
        origins = [b.origin for b in blocks]
        assert origins[0] == (0, 0, 0)
        assert origins[1] == (4, 0, 0)  # x varies fastest
        assert origins[2] == (0, 4, 0)
        assert origins == sorted(origins, key=lambda o: (o[2], o[1], o[0]))


class TestCubeLayers:
    """cube_layers views a field's whole cubes one z-layer at a time, with
    the same values, in the same order, as the partition's block views."""

    @pytest.mark.parametrize("shape, skip, extents", [
        ((16, 12, 8), 2, (2, 3, 2)),  # a strided field, as nxskip etc. load one
        ((10, 9, 7), 1, (4, 3, 2)),  # residual points on every axis
        ((8, 6, 1), 1, (2, 3, 1)),  # nz = 1
    ], ids=["strided", "residual", "nz1"])
    @pytest.mark.filterwarnings("ignore:grid .* not divisible:UserWarning")
    def test_layers_are_the_block_views(self, shape, skip, extents):
        raw = np.asfortranarray(np.random.default_rng(0).normal(size=shape))
        field = raw[::skip, ::skip, ::skip]
        ds = GridDataset(dims=GridDims(*field.shape), fields={("f", 0): field},
                         input_vars=["f"], output_vars=["f"], cluster_var="f")
        views = [b.values["f"] for b in all_blocks(ds, extents)]
        layers = grid.cube_layers(field, extents)
        bx, by, bz = grid.block_counts(ds.dims, extents)
        assert len(layers) == bz and {v.shape for v in layers} == {(*extents, bx, by)}
        cubes = [v[..., ix, jy] for v in layers for jy in range(by) for ix in range(bx)]
        assert len(cubes) == len(views)
        for cube, view in zip(cubes, views):
            assert np.array_equal(cube, view)
        # no layer is a copy
        assert all(np.shares_memory(v, raw) for v in layers)
        pooled = grid.flat_copy(views)
        assert grid.flat_copy(layers).tobytes() == pooled.tobytes()
        centroids = clustering.kmeans_fit(pooled, 3, seed=0)
        assert np.array_equal(clustering.cell_counts(centroids, layers),
                              clustering.cell_counts(centroids, views))


class TestTimestepPositions:
    def _dataset(self, timestep_ids=None):
        return GridDataset(
            dims=GridDims(nx=2, ny=2, nz=2, nt=3),
            fields={("f", t): np.zeros((2, 2, 2)) for t in range(3)},
            input_vars=["f"], output_vars=["f"], cluster_var="f",
            timestep_ids=timestep_ids,
        )

    def test_ids_default_to_positions(self):
        ds = self._dataset()
        assert ds.timestep_ids == [0, 1, 2]
        assert ds.positions("all") == [0, 1, 2]
        assert ds.positions([2, 0]) == [2, 0]

    def test_ids_map_to_positions(self):
        ds = self._dataset([4, 9, 11])
        assert ds.positions("all") == [0, 1, 2]
        assert ds.positions([11, 4]) == [2, 0]

    def test_unknown_id_is_named(self):
        with pytest.raises(ConfigError, match=r"timestep 3 not in the dataset \[4, 9, 11\]"):
            self._dataset([4, 9, 11]).positions([9, 3])

    def test_ids_must_not_repeat(self):
        # [4, 4, 9] was accepted: position 1 had no id of its own, and its rows read t = 4
        with pytest.raises(ConfigError, match=r"timestep_ids must not repeat, got \[4, 4, 9\]"):
            self._dataset([4, 4, 9])

    def test_id_count_must_match_nt(self):
        with pytest.raises(ValueError, match="2 timestep ids for 3 timesteps"):
            self._dataset([0, 1])

    @pytest.mark.parametrize("fields, message", [
        ({("f", t): np.zeros((2, 2, 2)) for t in (0, 2)}, "'f' has no field at position 1"),
        ({("f", t): np.zeros((1, 2, 2, 2)) for t in range(3)},
         r"has shape \(1, 2, 2, 2\), expected \(2, 2, 2\)"),
    ])
    def test_each_role_variable_has_one_field_per_position(self, fields, message):
        with pytest.raises(ValueError, match=message):
            GridDataset(dims=GridDims(nx=2, ny=2, nz=2, nt=3), fields=fields,
                        input_vars=["f"], output_vars=["f"], cluster_var="f")


class TestExtractBlock:
    def test_ramp_values(self):
        ds = ramp_dataset()
        b = extract_block(ds, (0, 0, 0), (2, 2, 2), 0)
        np.testing.assert_array_equal(
            b.flat_values("f"), [0, 1, 1, 2, 1, 2, 2, 3]
        )

    def test_slicing_identity(self):
        ds = ramp_dataset(8, 8, 8)
        b = extract_block(ds, (4, 0, 0), (4, 4, 4), 0)
        np.testing.assert_array_equal(b.values["f"], ds.fields["f", 0][4:8, 0:4, 0:4])

    def test_block_is_a_view(self):
        ds = ramp_dataset()
        b = extract_block(ds, (0, 0, 0), (2, 2, 2), 0)
        assert np.shares_memory(b.values["f"], ds.fields["f", 0])

    def test_out_of_bounds(self):
        ds = ramp_dataset(8, 8, 8)
        with pytest.raises(ValueError, match="out of bounds"):
            extract_block(ds, (6, 0, 0), (4, 4, 4), 0)
        with pytest.raises(ValueError, match="timestep"):
            extract_block(ds, (0, 0, 0), (2, 2, 2), 5)
