import numpy as np
import pytest

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
        fields={"f": f},
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
    ])
    def test_bad_value_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(nx=8, ny=8, nz=8, **{key: value})

    def test_roundtrip(self):
        cfg = parse_config(SST_YAML)
        assert parse_config(emit_config(cfg)) == cfg

    def test_roundtrip_nondefault(self):
        cfg = RunConfig(
            nx=10, ny=20, nz=30, input_vars=["a"], output_vars=["b"],
            cluster_var="a", method="uips", num_samples=5, nxsl=4, nysl=4,
            nzsl=4, timesteps=[0, 2], seed=99, workers=3,
        )
        assert parse_config(emit_config(cfg)) == cfg


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
        assert ds.fields["u"].shape == (1, 4, 3, 2)
        np.testing.assert_array_equal(ds.fields["u"][0], arr)

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
        with pytest.raises(IngestionError, match="non-finite"):
            load_dataset(self._config(tmp_path))

    def test_loads_are_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        self._write_raw(tmp_path / "u_0.bin", rng.normal(size=(4, 3, 2)))
        cfg = self._config(tmp_path)
        a = load_dataset(cfg).fields["u"]
        b = load_dataset(cfg).fields["u"]
        assert a.tobytes() == b.tobytes()

    def test_skip_strides(self, tmp_path):
        arr = np.arange(64, dtype=float).reshape(4, 4, 4, order="F")
        self._write_raw(tmp_path / "u_0.bin", arr)
        ds = load_dataset(self._config(tmp_path, nx=4, ny=4, nz=4, nxskip=2))
        assert ds.dims.nx == 2
        np.testing.assert_array_equal(ds.fields["u"][0], arr[::2])

    def test_timestep_ids_come_from_the_files(self, tmp_path):
        rng = np.random.default_rng(0)
        snaps = {t: rng.normal(size=(4, 3, 2)) for t in (5, 7)}
        for t, arr in snaps.items():
            self._write_raw(tmp_path / f"u_{t}.bin", arr)
        ds = load_dataset(self._config(tmp_path))
        assert ds.timestep_ids == [5, 7]
        one = load_dataset(self._config(tmp_path, timesteps=[7]))
        assert one.timestep_ids == [7]
        np.testing.assert_array_equal(one.fields["u"][0], snaps[7])

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
        assert ds.fields["u"][0, 2, 1, 0] == 12.0

    def test_csv_nan_rejected_with_index(self, tmp_path):
        (tmp_path / "pts.csv").write_text("x,y,u\n0,0,1\n1,0,2\n0,1,3\n1,1,nan\n")
        cfg = RunConfig(
            dtype="csv", path=str(tmp_path / "pts.csv"), dims=2, nx=2, ny=2,
            input_vars=["u"], output_vars=["u"], cluster_var="u",
            nxsl=1, nysl=1, nzsl=1,
        )
        with pytest.raises(IngestionError, match=r"'u' at index \(0, 1, 1, 0\)"):
            load_dataset(cfg)


class TestPartition:
    def test_exact_tiling_64(self):
        ds = ramp_dataset(8, 8, 8)
        blocks = partition_hypercubes(ds, (4, 4, 4), 0)
        assert len(blocks) == 8

    def test_block_count_residual(self):
        # residual planes along x are dropped, mirroring 514 vs 512
        ds = ramp_dataset(10, 8, 8)
        with pytest.warns(UserWarning, match="residual"):
            blocks = partition_hypercubes(ds, (4, 4, 4), 0)
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
            partition_hypercubes(ds, (16, 4, 4), 0)

    def test_deterministic_x_fastest_ordering(self):
        ds = ramp_dataset(8, 8, 8)
        blocks = partition_hypercubes(ds, (4, 4, 4), 0)
        origins = [b.origin for b in blocks]
        assert origins[0] == (0, 0, 0)
        assert origins[1] == (4, 0, 0)  # x varies fastest
        assert origins[2] == (0, 4, 0)
        assert origins == sorted(origins, key=lambda o: (o[2], o[1], o[0]))


class TestTimestepPositions:
    def _dataset(self, timestep_ids=None):
        return GridDataset(
            dims=GridDims(nx=2, ny=2, nz=2, nt=3), fields={"f": np.zeros((3, 2, 2, 2))},
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

    def test_id_count_must_match_nt(self):
        with pytest.raises(ValueError, match="2 timestep ids for 3 timesteps"):
            self._dataset([0, 1])


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
        np.testing.assert_array_equal(b.values["f"], ds.fields["f"][0, 4:8, 0:4, 0:4])

    def test_block_is_a_view(self):
        ds = ramp_dataset()
        b = extract_block(ds, (0, 0, 0), (2, 2, 2), 0)
        assert np.shares_memory(b.values["f"], ds.fields["f"])

    def test_out_of_bounds(self):
        ds = ramp_dataset(8, 8, 8)
        with pytest.raises(ValueError, match="out of bounds"):
            extract_block(ds, (6, 0, 0), (4, 4, 4), 0)
        with pytest.raises(ValueError, match="timestep"):
            extract_block(ds, (0, 0, 0), (2, 2, 2), 5)
