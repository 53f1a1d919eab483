import numpy as np
import pytest

from curator.grid import GridDims, load_dataset, parse_config, role_vars
from curator.synthetic import (
    GENERATOR_KINDS,
    dataset_config,
    gen_cylinder_wake,
    gen_scalar_field,
    gen_taylor_green,
    generate,
    save_dataset,
)


class TestTaylorGreen:
    def test_closed_form_at_origin_quadrant(self):
        ds = gen_taylor_green((16, 16, 16), t=0.0)
        x = 2.0 * np.pi * np.arange(16) / 16
        i, j, k = 3, 5, 2
        u = ds.fields["u", 0][i, j, k]
        assert u == pytest.approx(np.sin(x[i]) * np.cos(x[j]) * np.cos(x[k]))
        wz = ds.fields["wz", 0][i, j, k]
        assert wz == pytest.approx(2.0 * np.sin(x[i]) * np.sin(x[j]) * np.cos(x[k]))

    def test_w_zero_and_roles(self):
        ds = gen_taylor_green((8, 8, 8))
        assert np.all(ds.fields["w", 0] == 0.0)
        assert ds.input_vars == ["u", "v", "w"]
        assert ds.output_vars == ["wz"] and ds.cluster_var == "wz"

    def test_viscous_damping(self):
        early = gen_taylor_green((8, 8, 8), t=0.0)
        late = gen_taylor_green((8, 8, 8), t=10.0)
        ratio = np.exp(-2.0 * 0.01 * 10.0)
        np.testing.assert_allclose(late.fields["u", 0], ratio * early.fields["u", 0])

    def test_divergence_free(self):
        # spectral-exact on the periodic grid: check the analytic identity
        # du/dx + dv/dy = 0 via central differences
        n = 32
        ds = gen_taylor_green((n, n, n))
        h = 2.0 * np.pi / n
        u, v = ds.fields["u", 0], ds.fields["v", 0]
        dudx = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * h)
        dvdy = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * h)
        assert np.abs(dudx + dvdy).max() < 1e-2

    def test_vorticity_matches_finite_difference(self):
        n = 64
        ds = gen_taylor_green((n, n, n))
        h = 2.0 * np.pi / n
        u, v = ds.fields["u", 0], ds.fields["v", 0]
        dvdx = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * h)
        dudy = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2 * h)
        np.testing.assert_allclose(dvdx - dudy, ds.fields["wz", 0], atol=5e-3)

    def test_requires_3d(self):
        with pytest.raises(ValueError, match="3D"):
            gen_taylor_green(GridDims(nx=8, ny=8, nz=1, dims=2))


class TestCylinderWake:
    def test_shape_and_roles(self):
        ds = gen_cylinder_wake((32, 16))
        assert ds.dims.dims == 2 and ds.dims.nz == 1
        assert ds.fields["u", 0].shape == (32, 16, 1)
        assert ds.cluster_var == "wz"

    def test_deterministic_per_seed(self):
        a = gen_cylinder_wake((16, 16), seed=3)
        b = gen_cylinder_wake((16, 16), seed=3)
        c = gen_cylinder_wake((16, 16), seed=4)
        assert a.fields["wz", 0].tobytes() == b.fields["wz", 0].tobytes()
        assert a.fields["wz", 0].tobytes() != c.fields["wz", 0].tobytes()

    def test_alternating_signs(self):
        ds = gen_cylinder_wake((64, 64), n_vortices=2, seed=0)
        wz = ds.fields["wz", 0][:, :, 0]
        assert wz.max() > 0 and wz.min() < 0

    def test_advection_moves_peak_downstream(self):
        x_peak = []
        for t in (0.0, 2.0):
            ds = gen_cylinder_wake((128, 64), n_vortices=1, seed=0, t=t)
            wz = np.abs(ds.fields["wz", 0][:, :, 0])
            x_peak.append(np.unravel_index(wz.argmax(), wz.shape)[0])
        assert x_peak[1] > x_peak[0]

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2D"):
            gen_cylinder_wake(GridDims(nx=8, ny=8, nz=8, dims=3))

    def test_core_radius_must_be_positive(self):
        # core_radius 0 divided by zero and escaped curator generate as a traceback
        with pytest.raises(ValueError, match="core_radius must be positive"):
            gen_cylinder_wake((8, 8), core_radius=0)


class TestScalarFields:
    def test_gaussian_moments(self):
        ds = gen_scalar_field("gaussian", (32, 32, 32), {"mean": 2.0, "sigma": 0.5})
        s = ds.fields["s", 0]
        assert abs(s.mean() - 2.0) < 0.02
        assert abs(s.std() - 0.5) < 0.02

    def test_lognormal_positive_and_skewed(self):
        ds = gen_scalar_field("lognormal", (32, 32, 32), {"mu": 0.0, "sigma": 1.0})
        s = ds.fields["s", 0].ravel()
        assert s.min() > 0.0
        assert np.mean(((s - s.mean()) / s.std()) ** 3) > 1.0

    def test_bimodal_two_modes(self):
        ds = gen_scalar_field(
            "bimodal", (32, 32, 32),
            {"means": (-5.0, 5.0), "sigmas": (0.5, 0.5), "weights": (0.5, 0.5)},
        )
        s = ds.fields["s", 0].ravel()
        lo, hi = (s < 0).mean(), (s > 0).mean()
        assert 0.45 < lo < 0.55 and 0.45 < hi < 0.55
        assert np.abs(s)[s != 0].min() > 1.0  # nothing lands between the modes

    def test_param_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gen_scalar_field("gaussian", (4, 4, 4), {"sigma": 0.0})
        with pytest.raises(ValueError, match="weights"):
            gen_scalar_field("bimodal", (4, 4, 4), {"weights": (0.9, 0.9)})
        with pytest.raises(ValueError, match="unknown"):
            gen_scalar_field("cauchy", (4, 4, 4))

    def test_timesteps_split_one_draw(self):
        ds = gen_scalar_field("gaussian", GridDims(nx=4, ny=3, nz=2, nt=2), seed=5)
        draw = np.random.default_rng(5).normal(0.0, 1.0, size=(2, 4, 3, 2))
        for t in range(2):
            np.testing.assert_array_equal(ds.fields["s", t], draw[t])

    def test_seed_reproducible(self):
        a = gen_scalar_field("gaussian", (8, 8, 8), seed=7)
        b = gen_scalar_field("gaussian", (8, 8, 8), seed=7)
        assert a.fields["s", 0].tobytes() == b.fields["s", 0].tobytes()


class TestParamRules:
    # the library once took each: mu ignored, a third mean dropped, a string sigma used
    @pytest.mark.parametrize("kind, params, message", [
        ("gaussian", {"mu": 3.0}, "params.mu is not a param of kind gaussian_field"),
        ("bimodal", {"means": [0, 1, 2], "sigmas": [1, 1]},
         r"params.means, params.sigmas, params.weights must be of one length, got \[3, 2, 2\]"),
        ("gaussian", {"sigma": "2"}, "params.sigma must be a number, got '2'"),
    ], ids=["unknown-param", "lengths", "string"])
    def test_scalar_field_checks_its_params(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            gen_scalar_field(kind, (4, 4, 4), params)
        with pytest.raises(ValueError, match=message):
            generate(f"{kind}_field", (4, 4, 4), params=params)

    def test_cylinder_wake_rejects_nz_other_than_1(self):
        # (8, 8, 5) once gave an 8 x 8 x 1 grid
        with pytest.raises(ValueError, match="nz must be 1 for kind cylinder_wake, got 5"):
            generate("cylinder_wake", (8, 8, 5))
        assert generate("cylinder_wake", (8, 8, 1)).dims.nz == 1


class TestGenerateDispatch:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_every_kind_produces_dataset(self, kind):
        dims = (8, 8) if kind == "cylinder_wake" else (8, 8, 8)
        ds = generate(kind, dims, seed=0)
        assert (ds.cluster_var, 0) in ds.fields

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("perlin", (4, 4, 4))


class TestPersistence:
    def test_roundtrip_through_ingestion(self, tmp_path):
        ds = gen_taylor_green((8, 8, 8))
        written = save_dataset(ds, tmp_path / "tg")
        assert len(written) == 4  # u, v, w, wz at one timestep
        assert (tmp_path / "tg" / "u_0.bin").stat().st_size == 8 * 8 * 8 * 8

        cfg_text = dataset_config(
            ds, tmp_path / "tg", num_hypercubes=2, method="random",
            num_samples=8, nxsl=4, nysl=4, nzsl=4,
        )
        cfg = parse_config(cfg_text)
        loaded = load_dataset(cfg)
        for var in role_vars(ds):
            np.testing.assert_array_equal(loaded.fields[var, 0], ds.fields[var, 0])

    def test_file_is_little_endian_x_fastest(self, tmp_path):
        ds = gen_taylor_green((4, 4, 4))
        save_dataset(ds, tmp_path)
        raw = np.fromfile(tmp_path / "u_0.bin", dtype="<f8")
        np.testing.assert_array_equal(
            raw, ds.fields["u", 0].reshape(-1, order="F")
        )
