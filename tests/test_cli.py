import json
import os
import subprocess
import sys

import numpy as np
import pytest

from curator.cli import main
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

    def test_unknown_method_exits_1(self, case, tmp_path, capsys):
        assert run_cli([
            "compare", case, "--output-dir", tmp_path / "o",
            "--methods", "random,sobol",
        ]) == 1
        err = capsys.readouterr().err
        assert "sobol" in err and "maxent" in err  # lists the valid names


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
