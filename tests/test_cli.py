import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from curator.cli import main
from curator.grid import GridDataset, GridDims
from curator.synthetic import gen_taylor_green, save_dataset, dataset_config


@pytest.fixture()
def case(tmp_path):
    """A small on-disk dataset plus a ready-to-run config file."""
    ds = gen_taylor_green((8, 8, 8))
    data_dir = tmp_path / "data"
    save_dataset(ds, data_dir)
    text = dataset_config(
        ds, data_dir, num_hypercubes=4, method="random", num_samples=8,
        nxsl=4, nysl=4, nzsl=4,
    )
    cfg = tmp_path / "case.yaml"
    cfg.write_text(text)
    return cfg


@pytest.fixture()
def compare_case(tmp_path):
    """Two timesteps of a normal and a lognormal field on a 12x12x8 grid,
    3 of 18 cubes of 4^3 per step, 40 of 64 points per cube (so LHS
    snaps collide often)."""
    rng = np.random.default_rng(11)
    ds = GridDataset(
        dims=GridDims(nx=12, ny=12, nz=8, nt=2),
        fields={
            "u": rng.normal(size=(2, 12, 12, 8)),
            "s": rng.lognormal(size=(2, 12, 12, 8)),
        },
        input_vars=["u", "s"], output_vars=["s"], cluster_var="s",
    )
    data_dir = tmp_path / "data"
    save_dataset(ds, data_dir)
    cfg = tmp_path / "case.yaml"
    cfg.write_text(dataset_config(
        ds, data_dir, num_hypercubes=3, method="random", num_samples=40,
        num_clusters=4, nxsl=4, nysl=4, nzsl=4, strata=[2, 2, 2], uips_bins=5,
    ))
    return cfg


# sha256 of every payload file of `curator compare` on compare_case with
# methods random, stratified, lhs, uips, maxent and seeds 3, 4.  A change
# that alters these bytes updates the digest it moves and says why in
# CHANGES.md.
COMPARE_GOLDEN_DIGESTS = {
    "comparison.csv": "8f5efd0e25695c0435e2c7cf2fed88b8ea8c4dd271986db0e0ae4a4a38cb204b",
    "hist_random.csv": "c129fb9ac98f9c16ae48ecdeee65664a8ecefdf8f52e1aca77621101d90cd1cc",
    "hist_stratified.csv": "434c129cf4b8e02f7039f512825ce623cd9e935e9463eb8a31671f6192bf6b5c",
    "hist_lhs.csv": "6a770328cae9e4bcde80f9c5536c183796d63bbf51068a337ae1d40e9873298d",
    "hist_uips.csv": "170146437027293470f71c48a83e96db44ce7e0a12e53cabc5aa5401ca50f7b9",
    "hist_maxent.csv": "796091374a7c47cecfd15bafcb21d884c846bf7874c70a3a16df1efaf4985727",
}


def run_cli(args):
    return main([str(a) for a in args])


class TestSubsample:
    def test_writes_csv_and_sidecar(self, case, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["subsample", case, "--output-dir", out]) == 0
        csvs = list(out.glob("*.csv"))
        sidecars = list(out.glob("*.json"))
        assert len(csvs) == 1 and len(sidecars) == 1
        body = csvs[0].read_text().splitlines()
        assert body[0].startswith("t,i,j,k,x,y,z,")
        assert len(body) == 1 + 4 * 8
        sidecar = json.loads(sidecars[0].read_text())
        assert sidecar["write_seconds"] >= 0.0 and sidecar["wall_seconds"] >= 0.0
        assert "write_seconds" not in sidecar["provenance"]
        captured = capsys.readouterr().out
        assert "Points emitted: 32" in captured
        assert "proxy units" in captured

    def test_output_is_byte_stable(self, case, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["subsample", case, "--output-dir", a])
        run_cli(["subsample", case, "--output-dir", b])
        (csv_a,) = a.glob("*.csv")
        (csv_b,) = b.glob("*.csv")
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_method_and_samples_overrides(self, case, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "subsample", case, "--output-dir", out,
            "--method", "lhs", "--num-samples", "16",
        ]) == 0
        (csv_path,) = out.glob("*.csv")
        assert "Xlhs" in csv_path.name and "ns16" in csv_path.name
        assert len(csv_path.read_text().splitlines()) == 1 + 4 * 16

    def test_seed_flag_changes_output(self, case, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["subsample", case, "--output-dir", a, "--seed", "1"])
        run_cli(["subsample", case, "--output-dir", b, "--seed", "2"])
        (csv_a,) = a.glob("*.csv")
        (csv_b,) = b.glob("*.csv")
        assert csv_a.read_bytes() != csv_b.read_bytes()

    def test_env_seed_fallback(self, case, tmp_path, monkeypatch):
        # the env var only applies when the YAML has no explicit seed
        unseeded = tmp_path / "unseeded.yaml"
        unseeded.write_text(
            "\n".join(
                line for line in case.read_text().splitlines()
                if not line.strip().startswith("seed:")
            )
        )
        case = unseeded
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("CURATOR_SEED", "7")
        run_cli(["subsample", case, "--output-dir", a])
        monkeypatch.setenv("CURATOR_SEED", "8")
        run_cli(["subsample", case, "--output-dir", b])
        (csv_a,) = a.glob("*.csv")
        (csv_b,) = b.glob("*.csv")
        assert csv_a.read_bytes() != csv_b.read_bytes()

    def test_flag_beats_env_seed(self, case, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("CURATOR_SEED", "7")
        run_cli(["subsample", case, "--output-dir", a, "--seed", "3"])
        monkeypatch.delenv("CURATOR_SEED")
        run_cli(["subsample", case, "--output-dir", b, "--seed", "3"])
        (csv_a,) = a.glob("*.csv")
        (csv_b,) = b.glob("*.csv")
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert run_cli(["subsample", tmp_path / "nope.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_override_exits_1(self, case, tmp_path, capsys):
        # num_samples above the cube volume is a config error
        assert run_cli([
            "subsample", case, "--output-dir", tmp_path / "o",
            "--num-samples", "100",
        ]) == 1
        assert "num_samples" in capsys.readouterr().err


class TestCompare:
    def test_writes_tables(self, case, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli([
            "compare", case, "--output-dir", out,
            "--methods", "random,lhs", "--seeds", "0,1",
        ]) == 0
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0] == (
            "method,seed,variable,kl_nats,occupied_bin_fraction,"
            "span_ratio,tail_capture,points"
        )
        # 2 methods x (2 seeds + mean + std) x 4 variables
        assert len(comparison) == 1 + 2 * 4 * 4
        assert (out / "hist_random.csv").exists()
        assert (out / "hist_lhs.csv").exists()
        timing = json.loads((out / "comparison_timing.json").read_text())
        assert timing  # wall-clock lives in the sidecar
        assert "nats" in capsys.readouterr().out

    def test_comparison_csv_byte_stable(self, case, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli([
                "compare", case, "--output-dir", out,
                "--methods", "random,maxent", "--seeds", "0",
            ])
            outs.append((out / "comparison.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_bytes(self, compare_case, tmp_path, workers):
        out = tmp_path / "out"
        assert run_cli([
            "compare", compare_case, "--output-dir", out, "--workers", workers,
            "--methods", "random,stratified,lhs,uips,maxent", "--seeds", "3,4",
        ]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in COMPARE_GOLDEN_DIGESTS
        }
        assert digests == COMPARE_GOLDEN_DIGESTS

    def test_unknown_method_exits_1(self, case, tmp_path, capsys):
        assert run_cli([
            "compare", case, "--output-dir", tmp_path / "o",
            "--methods", "random,sobol",
        ]) == 1
        err = capsys.readouterr().err
        assert "sobol" in err and "maxent" in err  # lists the valid names


class TestTimesteps:
    """Snapshots are named by the timestep in their file names, not by
    their position in the loaded dataset."""

    @pytest.fixture()
    def two_steps(self, tmp_path):
        ds = GridDataset(
            dims=GridDims(nx=8, ny=8, nz=8, nt=2),
            fields={"s": np.random.default_rng(0).normal(size=(2, 8, 8, 8))},
            input_vars=["s"], output_vars=["s"], cluster_var="s",
        )
        data_dir = tmp_path / "data"
        save_dataset(ds, data_dir)
        cfg = tmp_path / "case.yaml"
        cfg.write_text(dataset_config(
            ds, data_dir, num_hypercubes=2, method="random", num_samples=8,
            nxsl=4, nysl=4, nzsl=4,
        ))
        return cfg, data_dir, ds.fields["s"]

    @staticmethod
    def _rows(out):
        return np.loadtxt(next(out.glob("*.csv")), delimiter=",", skiprows=1)

    def test_subsample_one_explicit_timestep(self, two_steps, tmp_path):
        cfg, _, s = two_steps
        out = tmp_path / "out"
        assert run_cli(["subsample", cfg, "--output-dir", out, "--timesteps", "1"]) == 0
        rows = self._rows(out)
        assert set(rows[:, 0]) == {1.0}
        i, j, k = rows[:, 1:4].astype(int).T
        np.testing.assert_array_equal(rows[:, 7], s[1, i, j, k])
        sidecar = json.loads(next(out.glob("*.json")).read_text())
        assert {r[0] for r in sidecar["provenance"]["cube_ranges"]} == {1}

    def test_compare_one_explicit_timestep(self, two_steps, tmp_path):
        cfg, _, _ = two_steps
        out = tmp_path / "out"
        assert run_cli([
            "compare", cfg, "--output-dir", out, "--methods", "random",
            "--seeds", "0", "--timesteps", "1",
        ]) == 0
        assert (out / "comparison.csv").exists()

    def test_t_column_holds_file_timesteps(self, two_steps, tmp_path):
        cfg, data_dir, _ = two_steps
        for old, new in ((0, 5), (1, 7)):
            (data_dir / f"s_{old}.bin").rename(data_dir / f"s_{new}.bin")
        out = tmp_path / "out"
        assert run_cli(["subsample", cfg, "--output-dir", out]) == 0
        assert set(self._rows(out)[:, 0]) == {5.0, 7.0}


class TestBench:
    def test_scaling_outputs(self, case, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli([
            "bench", case, "--output-dir", out,
            "--workers", "1,2", "--repeats", "1",
        ]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == "workers,wall_seconds,speedup,efficiency"
        assert len(lines) == 3
        knee = json.loads((out / "knee.json").read_text())
        assert knee["threshold"] == 0.5
        assert "Knee:" in capsys.readouterr().out

    def test_worker_one_always_included(self, case, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "bench", case, "--output-dir", out,
            "--workers", "2", "--repeats", "1",
        ]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[1].startswith("1,")


class TestGenerate:
    def test_generate_then_subsample(self, tmp_path):
        gen_cfg = tmp_path / "gen.yaml"
        gen_cfg.write_text(
            "generate:\n"
            "  kind: gaussian_field\n"
            "  name: blob\n"
            "  nx: 8\n  ny: 8\n  nz: 8\n"
            "  seed: 3\n"
            "subsample:\n"
            "  method: random\n"
            "  num_hypercubes: 4\n"
            "  num_samples: 8\n"
            "  nxsl: 4\n  nysl: 4\n  nzsl: 4\n"
        )
        out = tmp_path / "out"
        assert run_cli(["generate", gen_cfg, "--output-dir", out]) == 0
        case_yaml = out / "blob" / "case.yaml"
        assert case_yaml.exists()
        assert (out / "blob" / "s_0.bin").stat().st_size == 8 * 8 * 8 * 8

        sub_out = tmp_path / "sub"
        assert run_cli(["subsample", case_yaml, "--output-dir", sub_out]) == 0
        (csv_path,) = sub_out.glob("*.csv")
        assert len(csv_path.read_text().splitlines()) == 1 + 4 * 8

    def test_generated_data_is_seed_stable(self, tmp_path):
        text = (
            "generate:\n  kind: cylinder_wake\n  nx: 16\n  ny: 16\n  seed: 5\n"
        )
        for name in ("a", "b"):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(text)
            run_cli(["generate", cfg, "--output-dir", tmp_path / name])
        assert (tmp_path / "a" / "cylinder_wake" / "wz_0.bin").read_bytes() == (
            tmp_path / "b" / "cylinder_wake" / "wz_0.bin"
        ).read_bytes()

    def test_missing_section_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text("shared:\n  nx: 4\n")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "generate" in capsys.readouterr().err

    def test_unknown_kind_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text("generate:\n  kind: perlin\n  nx: 4\n  ny: 4\n")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "perlin" in capsys.readouterr().err


class TestInfo:
    def test_dry_run_reports_expectations(self, case, capsys):
        assert run_cli(["info", case]) == 0
        out = capsys.readouterr().out
        assert "8 hypercubes" in out
        assert "Config digest:" in out
        assert "8 x 8 x 8" in out

    def test_info_touches_no_files(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(["info", case])
        assert not (tmp_path / "snapshots").exists()


class TestEntryPoint:
    def test_module_invocation(self, case, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "curator.cli", "info", str(case)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "hypercubes" in proc.stdout

    def test_console_script_help(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "curator.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        for cmd in ("subsample", "compare", "bench", "generate", "info"):
            assert cmd in proc.stdout
