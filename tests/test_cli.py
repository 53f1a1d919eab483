import ast
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from curator import bench, cli, samplers
from curator.cli import main
from curator.grid import _SECTIONS, GridDataset, GridDims
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
    u, s = rng.normal(size=(2, 12, 12, 8)), rng.lognormal(size=(2, 12, 12, 8))
    ds = GridDataset(
        dims=GridDims(nx=12, ny=12, nz=8, nt=2),
        fields={(var, t): arr[t] for var, arr in (("u", u), ("s", s)) for t in range(2)},
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


# sha256 of the CSV that `curator subsample` writes for `case` with
# --num-samples 48 (192 rows), at any worker count.
SUBSAMPLE_GOLDEN_CSV = "0d97434bbfde079a06b11c719d85b31283cc5a05c628a05d0f389a880572f1c0"


# sha256 of the CSV that `curator subsample` writes for `csv_case`, at any
# worker count: the csv loader's fields are in memory, and no stage that
# releases a mapped field's pages may change a byte of it.
CSV_SUBSAMPLE_GOLDEN_CSV = "c2b16c2ee72c5d0216f67861081faef6924955e21943337c179abd1cb3120d4c"


@pytest.fixture()
def csv_case(tmp_path):
    """A 2-D `dtype: csv` dataset of 24 x 20 points, u and a lognormal s,
    and a config that runs both phases' maxent on s."""
    rng = np.random.default_rng(5)
    u, s = rng.normal(size=(20, 24)), rng.lognormal(size=(20, 24))  # rows y, columns x
    y, x = np.mgrid[0:20, 0:24]
    table = np.column_stack([a.ravel() for a in (x, y, u, s)])  # x fastest
    np.savetxt(tmp_path / "points.csv", table, fmt="%.17g", delimiter=",", header="x,y,u,s",
               comments="")
    cfg = tmp_path / "csv.yaml"
    cfg.write_text(yaml.safe_dump({
        "shared": {"dtype": "csv", "path": str(tmp_path / "points.csv"), "dims": 2,
                   "nx": 24, "ny": 20, "input_vars": ["u", "s"], "output_vars": ["s"],
                   "cluster_var": "s"},
        "subsample": {"hypercubes": "maxent", "method": "maxent", "num_hypercubes": 4,
                      "num_samples": 12, "num_clusters": 3, "nxsl": 8, "nysl": 5, "nzsl": 1},
    }))
    return cfg


def run_cli(args):
    return main([str(a) for a in args])


def unstable_provenance() -> set[str]:
    """The provenance keys perfbench/checks.py leaves out of its output
    digest, read from its source without importing the benchmark."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "checks.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_UNSTABLE_PROVENANCE"]]
    return set(ast.literal_eval(value))


@pytest.fixture()
def pools(monkeypatch):
    """The start method of every worker pool forked in the parent process."""
    started = []
    get_context = bench.mp.get_context

    def counting(method=None):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(bench.mp, "get_context", counting)
    return started


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

    def test_train_seed_is_not_explicit(self, case, tmp_path, monkeypatch):
        # parse_config ignores a seed under train, so CURATOR_SEED still applies
        with_train = tmp_path / "train_seed.yaml"
        with_train.write_text(
            "\n".join(
                line for line in case.read_text().splitlines()
                if not line.strip().startswith("seed:")
            ) + "\ntrain:\n  seed: 5\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("CURATOR_SEED", "9")
        run_cli(["subsample", with_train, "--output-dir", a])
        monkeypatch.delenv("CURATOR_SEED")
        run_cli(["subsample", with_train, "--output-dir", b, "--seed", "9"])
        (csv_a,) = a.glob("*.csv")
        (csv_b,) = b.glob("*.csv")
        assert csv_a.read_bytes() == csv_b.read_bytes()

    @pytest.mark.parametrize("value", ["abc", "1,2", "-1"])
    def test_bad_env_seed_names_the_variable(self, case, tmp_path, monkeypatch, capsys, value):
        unseeded = tmp_path / "unseeded.yaml"
        unseeded.write_text(case.read_text().replace("  seed: 0\n", ""))
        monkeypatch.setenv("CURATOR_SEED", value)
        assert run_cli(["subsample", unseeded, "--output-dir", tmp_path / "o"]) == 1
        assert "CURATOR_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "-1", "seed"), ("--timesteps", "0,0", "timesteps"),
    ])
    def test_bad_override_names_its_key(self, case, tmp_path, capsys, flag, value, key):
        assert run_cli([
            "subsample", case, "--output-dir", tmp_path / "o", flag, value,
        ]) == 1
        assert f"error: {key}" in capsys.readouterr().err

    def test_flag_beats_env_seed(self, case, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("CURATOR_SEED", "7")
        run_cli(["subsample", case, "--output-dir", a, "--seed", "3"])
        monkeypatch.delenv("CURATOR_SEED")
        run_cli(["subsample", case, "--output-dir", b, "--seed", "3"])
        (csv_a,) = a.glob("*.csv")
        (csv_b,) = b.glob("*.csv")
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_provenance_does_not_depend_on_workers(self, case, tmp_path):
        provenance = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run_cli(["subsample", case, "--output-dir", out, "--workers", workers]) == 0
            (sidecar,) = out.glob("*.json")
            prov = json.loads(sidecar.read_text())["provenance"]
            provenance.append({k: v for k, v in prov.items()
                               if k not in ("phase_seconds", "workers")})
        assert provenance[0] == provenance[1]

    def test_digest_leaves_out_the_keys_the_benchmark_leaves_out(self, case, tmp_path):
        # perfbench digests every provenance key but these, so a key that
        # moves between runs and is missing here fails every benchmark op
        out = tmp_path / "o"
        assert run_cli(["subsample", case, "--output-dir", out]) == 0
        (sidecar,) = out.glob("*.json")
        provenance = json.loads(sidecar.read_text())["provenance"]
        sample = samplers.SampleSet(["t", "u"], np.zeros((2, 2)), provenance)
        digest = sample.content_digest()
        left_out = {key for key in provenance
                    if replace(sample, provenance={**provenance, key: "moved"}).content_digest()
                    == digest}
        assert left_out == unstable_provenance()

    def test_two_runs_differ_only_in_unstable_provenance(self, case, tmp_path):
        provenance = []
        for name in ("a", "b"):
            assert run_cli(["subsample", case, "--output-dir", tmp_path / name]) == 0
            (sidecar,) = (tmp_path / name).glob("*.json")
            provenance.append(json.loads(sidecar.read_text())["provenance"])
        a, b = provenance
        assert set(a) == set(b)
        assert {key for key in a if a[key] != b[key]} <= unstable_provenance()

    def test_unseeded_sidecar_records_the_drawn_seed(self, case, tmp_path):
        cfg = tmp_path / "unseeded.yaml"
        cfg.write_text(case.read_text().replace("seed: 0", "seed: unseeded"))
        out = tmp_path / "out"
        assert run_cli(["subsample", cfg, "--output-dir", out]) == 0
        (sidecar,) = out.glob("*.json")
        record = json.loads(sidecar.read_text())
        assert record["effective_config"]["seed"] == record["provenance"]["seed"]

    @pytest.mark.parametrize("old, new, key", [
        ("dtype: sst-binary", "dtype: hdf5", "dtype"),
        ("fileprefix: H", "fileprefix: run-{foo}-H", "fileprefix"),
        ("timesteps: all", "timesteps: []", "timesteps"),
        ("timesteps: all", "timesteps: 0", "timesteps"),
        ("num_samples: 8", "num_samples: 8.5", "num_samples"),
        ("num_clusters: 20", "num_clusters: x", "num_clusters"),
        ("dims: 3", "dims: 5", "dims"),
        ("subsample:", "train: [1, 2]\nsubsample:", "train"),
        ("input_vars:\n  - u\n", "input_vars:\n  - 1\n", "input_vars"),
        ("output_vars:\n  - wz\n", "output_vars: 5\n", "output_vars"),
        ("cluster_var: wz", "cluster_var: [5]", "cluster_var"),
        ("cluster_var: wz", "cluster_var: [wz, u]", "cluster_var"),
        ("subsample:", "train: {params: abc}\nsubsample:", "train.params"),
        ("subsample:", "train: {epochs: -5}\nsubsample:", "train.epochs"),
    ], ids=["dtype", "fileprefix", "timesteps-empty", "timesteps-int", "num_samples",
            "num_clusters", "dims", "train", "input_vars", "output_vars", "cluster_var",
            "cluster_var-two", "train-params", "train-epochs"])
    def test_bad_value_fails_before_loading(self, case, tmp_path, capsys, old, new, key):
        # with a data file gone, only a check made before loading names the key
        (case.parent / "data" / "u_0.bin").unlink()
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(case.read_text().replace(old, new))
        assert run_cli(["subsample", cfg, "--output-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert key in err and "u_0.bin" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_csv_bytes(self, case, tmp_path, workers):
        # 4 cubes of 4^3 at 48 points each: coordinate values repeat across rows
        out = tmp_path / "out"
        assert run_cli([
            "subsample", case, "--output-dir", out, "--workers", workers,
            "--num-samples", "48",
        ]) == 0
        (csv_path,) = out.glob("*.csv")
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == SUBSAMPLE_GOLDEN_CSV

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csv_dataset_golden_csv_bytes(self, csv_case, tmp_path, workers):
        out = tmp_path / "out"
        assert run_cli(["subsample", csv_case, "--output-dir", out, "--workers", workers]) == 0
        (csv_path,) = out.glob("*.csv")
        assert len(csv_path.read_text().splitlines()) == 1 + 4 * 12
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == CSV_SUBSAMPLE_GOLDEN_CSV

    def test_bad_strata_fail_before_loading(self, case, tmp_path, capsys):
        # case has 4^3 cubes and the default strata [4, 4, 4]: 64 strata for 8 samples
        assert run_cli([
            "subsample", case, "--output-dir", tmp_path / "o", "--method", "stratified",
        ]) == 1
        assert "error: strata" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["subsample", "compare", "bench"])
    def test_missing_num_samples_fails_before_loading(self, case, tmp_path, capsys, command):
        cfg = tmp_path / "no_budget.yaml"
        cfg.write_text(case.read_text().replace("  num_samples: 8\n", ""))
        assert run_cli([command, cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "num_samples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overrides_are_checked_together(self, case, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "subsample", case, "--output-dir", out,
            "--method", "stratified", "--num-samples", "64",
        ]) == 0
        (csv_path,) = out.glob("*.csv")
        assert len(csv_path.read_text().splitlines()) == 1 + 4 * 64

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

    def test_bad_strata_fail_before_loading(self, case, tmp_path, capsys):
        # the default strata [4, 4, 4] make 64 strata for case's 8 samples
        assert run_cli([
            "compare", case, "--output-dir", tmp_path / "o", "--methods", "random,stratified",
        ]) == 1
        assert "error: strata" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
    def test_golden_bytes(self, compare_case, tmp_path, workers, pools):
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
        # one pool over the 10 (method, seed) cells, none at 1 worker
        assert len(pools) == (1 if workers > 1 else 0)

    def test_lone_cell_keeps_the_cube_pool(self, compare_case, tmp_path, pools):
        payloads = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run_cli([
                "compare", compare_case, "--output-dir", out, "--workers", workers,
                "--methods", "maxent", "--seeds", "3",
            ]) == 0
            payloads.append([
                (out / n).read_bytes() for n in ("comparison.csv", "hist_maxent.csv")
            ])
        assert len(pools) == 1  # run_pipeline's cube pool, at 2 workers only
        assert payloads[0] == payloads[1]

    def test_error_in_a_pool_worker_exits_1(self, compare_case, tmp_path, pools, monkeypatch,
                                            capsys):
        # the forked workers inherit the patched sampler; the lhs cell raises in one
        def failing_lhs(*args, **kwargs):
            raise ValueError("lhs failed in a worker")

        monkeypatch.setattr(samplers, "sample_lhs", failing_lhs)
        assert run_cli([
            "compare", compare_case, "--output-dir", tmp_path / "o", "--workers", 2,
            "--methods", "random,lhs", "--seeds", "3",
        ]) == 1
        assert len(pools) == 1
        assert "lhs failed in a worker" in capsys.readouterr().err

    def test_uips_with_five_input_vars_fails_before_loading(self, tmp_path, capsys):
        names = ["a", "b", "c", "d", "e"]
        rng = np.random.default_rng(0)
        ds = GridDataset(
            dims=GridDims(nx=8, ny=8, nz=8),
            fields={(v, 0): rng.normal(size=(8, 8, 8)) for v in names},
            input_vars=names, output_vars=["a"], cluster_var="a",
        )
        save_dataset(ds, tmp_path / "data")
        cfg = tmp_path / "five.yaml"
        cfg.write_text(dataset_config(
            ds, tmp_path / "data", num_hypercubes=2, method="random", num_samples=8,
            nxsl=4, nysl=4, nzsl=4,
        ))
        # uips binned only the first four of them
        assert run_cli([
            "compare", cfg, "--output-dir", tmp_path / "o", "--methods", "random,uips",
        ]) == 1
        assert "error: input_vars" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_uips_without_input_vars_fails_before_loading(self, case, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", lambda config: pytest.fail("data loaded"))
        cfg = tmp_path / "none.yaml"
        cfg.write_text(case.read_text().replace(
            "input_vars:\n  - u\n  - v\n  - w\n", "input_vars: []\n"))
        assert run_cli([
            "compare", cfg, "--output-dir", tmp_path / "o", "--methods", "random,uips",
        ]) == 1
        assert "error: input_vars: uips bins 1 to 4 variables, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, methods, seeds", [
        ("--methods", "random,random", "5"), ("--seeds", "random", "5,5"),
    ])
    def test_repeated_entries_fail_before_loading(self, case, tmp_path, capsys, monkeypatch,
                                                  flag, methods, seeds):
        # a repeat wrote each of its rows twice and a std of 0 for one seed
        monkeypatch.setattr(cli, "load_dataset", lambda config: pytest.fail("data loaded"))
        assert run_cli([
            "compare", case, "--output-dir", tmp_path / "o",
            "--methods", methods, "--seeds", seeds,
        ]) == 1
        assert f"error: {flag} must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_method_exits_1(self, case, tmp_path, capsys):
        assert run_cli([
            "compare", case, "--output-dir", tmp_path / "o",
            "--methods", "random,sobol",
        ]) == 1
        err = capsys.readouterr().err
        assert "sobol" in err and "maxent" in err  # lists the valid names


class TestStartMethod:
    """Workers get their work from the pool itself, so the outputs hold
    under every start method, not only fork's inherited memory."""

    @pytest.fixture(params=["spawn", "forkserver"])
    def started(self, request, monkeypatch):
        """Substitute a start method for fork; record each pool started."""
        method = request.param
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} is not available on this platform")
        started = []
        get_context = bench.mp.get_context

        def substitute(_fork=None):
            started.append(method)
            return get_context(method)

        monkeypatch.setattr(bench.mp, "get_context", substitute)
        return started

    def test_subsample_golden_csv(self, case, tmp_path, started):
        out = tmp_path / "out"
        assert run_cli([
            "subsample", case, "--output-dir", out, "--workers", 2, "--num-samples", "48",
        ]) == 0
        (csv_path,) = out.glob("*.csv")
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == SUBSAMPLE_GOLDEN_CSV
        assert len(started) == 1

    def test_compare_golden_bytes(self, compare_case, tmp_path, started):
        out = tmp_path / "out"
        assert run_cli([
            "compare", compare_case, "--output-dir", out, "--workers", 2,
            "--methods", "random,stratified,lhs,uips,maxent", "--seeds", "3,4",
        ]) == 0
        assert {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in COMPARE_GOLDEN_DIGESTS
        } == COMPARE_GOLDEN_DIGESTS
        assert len(started) == 1


@pytest.fixture()
def f32_case(tmp_path):
    """compare_case's fields written as precision-4 (float32) files, with
    maxent cube selection."""
    rng = np.random.default_rng(11)
    fields = {"u": rng.normal(size=(2, 12, 12, 8)), "s": rng.lognormal(size=(2, 12, 12, 8))}
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for var, arr in fields.items():
        for ts in range(2):
            arr[ts].astype("<f4").reshape(-1, order="F").tofile(data_dir / f"{var}_{ts}.bin")
    ds = GridDataset(
        dims=GridDims(nx=12, ny=12, nz=8, nt=2),
        fields={(var, t): arr[t] for var, arr in fields.items() for t in range(2)},
        input_vars=["u", "s"], output_vars=["s"], cluster_var="s",
    )
    cfg = tmp_path / "case.yaml"
    cfg.write_text(dataset_config(
        ds, data_dir, precision=4, hypercubes="maxent", num_hypercubes=3,
        method="maxent", num_samples=40, num_clusters=4, nxsl=4, nysl=4, nzsl=4,
        strata=[2, 2, 2], uips_bins=5,
    ))
    return cfg


# sha256 of the CSV of `curator subsample` on f32_case (both timesteps)
F32_SUBSAMPLE_GOLDEN_CSV = "12125eb398be0bf6cd6bbe17fddedd651984a2f0c5587c328d707c2173fadd5e"
# sha256 of every payload file of `curator compare` on f32_case with
# methods random, stratified, lhs, uips, maxent and seeds 3, 4
F32_COMPARE_GOLDEN_DIGESTS = {
    "comparison.csv": "40fdb305e62bbb0829392a4d7950a24ed73c1fb38d3e99d19b5990ccaeb4f643",
    "hist_random.csv": "e64636e471012ca727005896bc9abec22c8186efcf8b577ff2ea11d60fa0da67",
    "hist_stratified.csv": "1e84322d69d59db9a84cc9121504dbed71e3d98d823e6c3485b83e4bede0ec7f",
    "hist_lhs.csv": "2206caa8805ad23a15637c44c8891ddf7d696329dff6738ad3a265ea12469525",
    "hist_uips.csv": "25a0935a95c22624d704fc093639d6d2e3cf60250d6139cde453769f1031ea00",
    "hist_maxent.csv": "2f320d629bfc9e32b0dd719ced38743e8509b66d1c870d9dd7fc7bb139a4bb36",
}


class TestPrecision4:
    """float32 files give fixed bytes at any worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_subsample_golden_csv(self, f32_case, tmp_path, workers):
        out = tmp_path / "out"
        assert run_cli(["subsample", f32_case, "--output-dir", out, "--workers", workers]) == 0
        (csv_path,) = out.glob("*.csv")
        assert len(csv_path.read_text().splitlines()) == 1 + 2 * 3 * 40
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == F32_SUBSAMPLE_GOLDEN_CSV

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compare_golden_bytes(self, f32_case, tmp_path, workers):
        out = tmp_path / "out"
        assert run_cli([
            "compare", f32_case, "--output-dir", out, "--workers", workers,
            "--methods", "random,stratified,lhs,uips,maxent", "--seeds", "3,4",
        ]) == 0
        assert {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in F32_COMPARE_GOLDEN_DIGESTS
        } == F32_COMPARE_GOLDEN_DIGESTS


class TestTimesteps:
    """Snapshots are named by the timestep in their file names, not by
    their position in the loaded dataset."""

    @pytest.fixture()
    def two_steps(self, tmp_path):
        s = np.random.default_rng(0).normal(size=(2, 8, 8, 8))
        ds = GridDataset(
            dims=GridDims(nx=8, ny=8, nz=8, nt=2), fields={("s", t): s[t] for t in range(2)},
            input_vars=["s"], output_vars=["s"], cluster_var="s",
        )
        data_dir = tmp_path / "data"
        save_dataset(ds, data_dir)
        cfg = tmp_path / "case.yaml"
        cfg.write_text(dataset_config(
            ds, data_dir, num_hypercubes=2, method="random", num_samples=8,
            nxsl=4, nysl=4, nzsl=4,
        ))
        return cfg, data_dir, s

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

    def test_bad_workers_fail_before_loading(self, case, tmp_path, capsys):
        (case.parent / "data" / "u_0.bin").unlink()
        assert run_cli(["bench", case, "--output-dir", tmp_path / "o", "--workers", "0"]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unseeded_config_keeps_one_seed(self, case, tmp_path):
        # every repeat reruns the pipeline: they agree only on one drawn seed
        cfg = tmp_path / "unseeded.yaml"
        cfg.write_text(case.read_text().replace("seed: 0", "seed: unseeded"))
        assert run_cli([
            "bench", cfg, "--output-dir", tmp_path / "o", "--workers", "1", "--repeats", "2",
        ]) == 0

    def test_a_worker_count_that_changes_the_output_exits_2(self, case, tmp_path, capsys,
                                                            monkeypatch):
        run_pipeline = samplers.run_pipeline

        def drifting(config, dataset, workers=None):
            sample = run_pipeline(config, dataset, workers=workers)
            sample.data[0, -1] += workers - 1
            return sample

        monkeypatch.setattr(samplers, "run_pipeline", drifting)
        assert run_cli(["bench", case, "--output-dir", tmp_path / "o",
                        "--workers", "1,2", "--repeats", "1"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: output at 2 workers differs" in err

    @pytest.mark.parametrize("cores, counts", [
        (None, [1]), (1, [1]), (2, [1, 2]), (3, [1, 2]), (8, [1, 2, 4, 8]), (12, [1, 2, 4, 8]),
    ])
    def test_default_worker_counts_are_powers_of_two_up_to_the_cores(self, monkeypatch,
                                                                     cores, counts):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert cli._bench_worker_counts(cli._build_parser().parse_args(["bench", "c.yaml"])) \
            == counts

    def test_worker_one_always_included(self, case, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "bench", case, "--output-dir", out,
            "--workers", "2", "--repeats", "1",
        ]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[1].startswith("1,")


class TestFlagErrors:
    @pytest.mark.parametrize("command, flag, value, bad", [
        ("subsample", "--workers", "abc", "abc"),
        ("compare", "--seeds", "1,x", "x"),
        ("subsample", "--timesteps", "0,z", "z"),
        ("subsample", "--workers", "1,2", "1,2"),  # one count outside bench
    ])
    def test_bad_integer_names_the_flag(self, case, tmp_path, capsys, command, flag, value, bad):
        assert run_cli([command, case, "--output-dir", tmp_path / "o", flag, value]) == 1
        err = capsys.readouterr().err
        assert flag in err and repr(bad) in err

    @pytest.mark.parametrize("command, workers, named", [
        ("bench", "0", "--workers"),
        ("bench", "2,-1", "--workers"),
        ("subsample", "-2", "workers"),
    ])
    def test_worker_count_below_one_exits_1(self, case, tmp_path, capsys, command, workers, named):
        assert run_cli([command, case, "--output-dir", tmp_path / "o", "--workers", workers]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("subsample", "--seed", "abc"),
        ("subsample", "--num-samples", "x"),
        ("bench", "--repeats", "x"),
        ("subsample", "--bogus", "1"),
        ("compare", "--method", "random"),  # compare reads --methods
        ("info", "--output-dir", "o"),  # info writes nothing
        ("generate", "--workers", "2"),
    ])
    def test_usage_error_exits_1(self, case, tmp_path, monkeypatch, capsys, command, flag, value):
        monkeypatch.chdir(tmp_path)  # so a run that wrongly succeeds writes nothing here
        assert run_cli([command, case, flag, value]) == 1
        assert flag in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["subsample", "--help"])
        assert exc.value.code == 0
        assert "--num-samples" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["subsample", "compare", "info", "generate"])
    @pytest.mark.parametrize("text, line, problem", [
        ("shared: [1, 2\n", 2, "expected ',' or ']'"),
        ("generate:\n  kind: a: b\n", 2, "mapping values are not allowed here"),
        ("shared:\n  path: \"\x01\"\n", 2, "unacceptable character #x0001"),
    ], ids=["unclosed", "mapping", "control"])
    def test_malformed_yaml_names_the_file(self, tmp_path, capsys, command, text, line, problem):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert run_cli([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: malformed YAML at line {line}: {problem}")
        assert "Traceback" not in err and "<unicode string>" not in err

    def test_yaml_workers_below_one_exits_1(self, case, tmp_path, capsys):
        cfg = tmp_path / "zero.yaml"
        cfg.write_text(case.read_text().replace("workers: 1", "workers: 0"))
        assert run_cli(["subsample", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "workers" in capsys.readouterr().err


class TestConfigFailsBeforeLoading:
    """A config a run cannot use is reported, naming its key, before any
    file is read or the output directory is made."""

    @pytest.mark.parametrize("command", ["subsample", "compare", "bench"])
    @pytest.mark.parametrize("old, new, key", [
        ("nxsl: 4", "nxsl: 40", "nxsl"),
        ("nxskip: 1", "nxskip: 4", "nxsl"),  # the strided grid keeps 2 points along x
        ("num_hypercubes: 4", "num_hypercubes: 20", "num_hypercubes"),  # of 8 cubes
        ("  cluster_var: wz\n", "", "cluster_var"),
    ])
    def test_names_its_key(self, case, tmp_path, capsys, command, old, new, key):
        (case.parent / "data" / "u_0.bin").unlink()
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(case.read_text().replace(old, new))
        methods = ["--methods", "random,lhs"] if command == "compare" else []
        assert run_cli([command, cfg, "--output-dir", tmp_path / "o", *methods]) == 1
        err = capsys.readouterr().err
        assert key in err and "not found" not in err
        assert not (tmp_path / "o").exists()

    def test_info_counts_cubes_as_the_check_does(self, case, tmp_path, capsys):
        cfg = tmp_path / "strided.yaml"
        cfg.write_text(case.read_text().replace("nxskip: 1", "nxskip: 2"))
        assert run_cli(["info", cfg]) == 0
        assert "4 hypercubes" in capsys.readouterr().out  # 1 x 2 x 2 cubes on 4 x 8 x 8
        cfg.write_text(case.read_text().replace("nxskip: 1", "nxskip: 4"))
        assert run_cli(["info", cfg]) == 1
        assert "nxsl" in capsys.readouterr().err
        cfg.write_text(case.read_text().replace("num_hypercubes: 4", "num_hypercubes: 20"))
        assert run_cli(["info", cfg]) == 1
        assert "num_hypercubes 20 exceeds the 8 cubes" in capsys.readouterr().err


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

    def test_subsample_section_is_copied_whole(self, tmp_path):
        # strata and uips_bins are not among the keys generate once copied
        gen_cfg = tmp_path / "gen.yaml"
        gen_cfg.write_text(
            "generate:\n  kind: gaussian_field\n  name: blob\n  nx: 8\n  ny: 8\n  nz: 8\n"
            "subsample:\n  method: stratified\n  num_hypercubes: 4\n  num_samples: 8\n"
            "  nxsl: 4\n  nysl: 4\n  nzsl: 4\n  strata: [2, 2, 2]\n  uips_bins: 7\n"
        )
        out = tmp_path / "out"
        assert run_cli(["generate", gen_cfg, "--output-dir", out]) == 0
        case_yaml = out / "blob" / "case.yaml"
        subsample = yaml.safe_load(case_yaml.read_text())["subsample"]
        assert subsample["strata"] == [2, 2, 2] and subsample["uips_bins"] == 7
        assert run_cli(["subsample", case_yaml, "--output-dir", tmp_path / "sub"]) == 0

    def test_unknown_subsample_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text(
            "generate:\n  kind: gaussian_field\n  nx: 4\n  ny: 4\n  nz: 4\n"
            "subsample:\n  num_samples: 8\n  colour: red\n"
        )
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "colour" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_generate_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text("generate:\n  kind: gaussian_field\n  nx: 4\n  ny: 4\n  nu: 0.5\n")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "unknown generate key(s): nu" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["kind", "nx", "ny"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        spec = {"kind": "gaussian_field", "nx": 4, "ny": 4, "nz": 4}
        del spec[key]
        cfg = tmp_path / "g.yaml"
        cfg.write_text(yaml.safe_dump({"generate": spec}))
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert f"missing required key: {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_section_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text("shared:\n  nx: 4\n")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "generate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("nx", "4.5"), ("ny", "0"), ("nz", "true"), ("t", "abc"), ("params", "[1, 2]"),
        ("seed", "-1"), ("name", "[1]"), ("name", "''"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, value):
        spec = {"kind": "gaussian_field", "nx": 4, "ny": 4, "nz": 4, key: value}
        cfg = tmp_path / "g.yaml"
        cfg.write_text("generate:\n" + "".join(f"  {k}: {v}\n" for k, v in spec.items()))
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert f"generate {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, nz", [
        ("cylinder_wake", "  nz: 5\n"), ("taylor_green", ""), ("gaussian_field", ""),
        ("lognormal_field", ""), ("bimodal_field", ""),
    ], ids=["cylinder_wake", "taylor_green", "gaussian_field", "lognormal_field",
            "bimodal_field"])
    def test_nz_must_suit_the_kind(self, tmp_path, capsys, kind, nz):
        # cylinder_wake wrote nz: 1 for nz: 5; a 3-D kind without nz made an 8x8x1 grid
        cfg = tmp_path / "g.yaml"
        cfg.write_text(f"generate:\n  kind: {kind}\n  nx: 8\n  ny: 8\n{nz}")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "generate nz" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, params, name", [
        ("cylinder_wake", "{foo: 1}", "foo"),
        ("cylinder_wake", "{n_vortices: x}", "n_vortices"),
        ("cylinder_wake", "{n_vortices: 2.5}", "n_vortices"),
        ("gaussian_field", "{sigm: 2}", "sigm"),
        ("gaussian_field", "{sigma: abc}", "sigma"),
        ("taylor_green", "{nu: true}", "nu"),
        ("bimodal_field", "{means: [0, x]}", "means"),
        ("bimodal_field", "{means: [-1, 0, 1]}", "means"),
        ("bimodal_field", "{sigmas: [1, 1, 1], weights: [0.5, 0.5]}", "sigmas"),
    ])
    def test_bad_param_names_it(self, tmp_path, capsys, kind, params, name):
        nz = "" if kind == "cylinder_wake" else "  nz: 4\n"
        cfg = tmp_path / "g.yaml"
        cfg.write_text(f"generate:\n  kind: {kind}\n  nx: 4\n  ny: 4\n{nz}  params: {params}\n")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert f"generate params.{name}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_case_config_makes_no_directory(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text(
            "generate:\n  kind: gaussian_field\n  nx: 4\n  ny: 4\n  nz: 4\n"
            "subsample:\n  num_hypercubes: 0\n"
        )
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 1
        assert "num_hypercubes" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_taylor_green_takes_nu(self, tmp_path):
        cfg = tmp_path / "g.yaml"
        cfg.write_text(
            "generate:\n  kind: taylor_green\n  nx: 4\n  ny: 4\n  nz: 4\n  t: 1.0\n"
            "  params: {nu: 0.5}\n"
        )
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o"]) == 0
        raw = np.fromfile(tmp_path / "o" / "taylor_green" / "wz_0.bin", dtype="<f8")
        want = gen_taylor_green((4, 4, 4), t=1.0, nu=0.5).fields["wz", 0]
        np.testing.assert_array_equal(raw, want.reshape(-1, order="F"))

    def test_negative_seed_flag_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "g.yaml"
        cfg.write_text("generate:\n  kind: gaussian_field\n  nx: 4\n  ny: 4\n  nz: 4\n")
        assert run_cli(["generate", cfg, "--output-dir", tmp_path / "o", "--seed", "-1"]) == 1
        assert "generate --seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_explicit_timesteps_give_the_total_rows(self, case, capsys):
        # 4 cubes of 8 samples at each of 2 timesteps
        assert run_cli(["info", case, "--timesteps", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "Expected rows: 64" in out and "per timestep" not in out

    def test_missing_num_samples_is_reported(self, case, tmp_path, capsys):
        cfg = tmp_path / "no_budget.yaml"
        cfg.write_text(case.read_text().replace("  num_samples: 8\n", ""))
        assert run_cli(["info", cfg]) == 0
        assert "num_samples not set" in capsys.readouterr().out

    def test_unknown_key_exits_1(self, case, tmp_path, capsys):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(case.read_text().replace("  num_clusters: 20\n", "  num_cluster: 5\n"))
        assert run_cli(["info", cfg]) == 1
        err = capsys.readouterr().err
        assert "num_cluster" in err and "subsample" in err

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


@pytest.fixture(scope="session")
def _open_recorders():
    """The lists that record each file opened while they are active.  An
    audit hook cannot be removed, so one serves the whole session."""
    active: list[list[str]] = []

    def hook(event, args):
        if event == "open" and active:
            active[-1].append(str(args[0]))

    sys.addaudithook(hook)
    return active


@pytest.fixture()
def opened(_open_recorders):
    """The paths of the files opened during the test."""
    paths: list[str] = []
    _open_recorders.append(paths)
    yield paths
    _open_recorders.remove(paths)


# One bad value for every config key, (section, key, value, what the error names).
BAD_KEYS = [
    ("shared", "dtype", "hdf5", "dtype"),
    ("shared", "path", 5, "path"),
    ("shared", "dims", 5, "dims"),
    ("shared", "nx", 0, "nx"),
    ("shared", "ny", "x", "ny"),
    ("shared", "nz", 2.5, "nz"),
    ("shared", "input_vars", [1], "input_vars"),
    ("shared", "output_vars", 5, "output_vars"),
    ("shared", "cluster_var", 5, "cluster_var"),
    ("shared", "gravity", "w", "gravity"),
    ("shared", "timesteps", [], "timesteps"),
    ("shared", "nxskip", 0, "nxskip"),
    ("shared", "nyskip", -1, "nyskip"),
    ("shared", "nzskip", "a", "nzskip"),
    ("shared", "precision", 2, "precision"),
    ("shared", "fileprefix", "run-{foo}", "fileprefix"),
    ("subsample", "hypercubes", "bogus", "hypercubes"),
    ("subsample", "method", "bogus", "method"),
    ("subsample", "num_hypercubes", 0, "num_hypercubes"),
    ("subsample", "num_samples", 8.5, "num_samples"),
    ("subsample", "num_clusters", 0, "num_clusters"),
    ("subsample", "nxsl", 0, "nxsl"),
    ("subsample", "nysl", "a", "nysl"),
    ("subsample", "nzsl", 100, "nzsl"),
    ("subsample", "strata", [1, 2], "strata"),
    ("subsample", "uips_bins", 0, "uips_bins"),
    ("subsample", "seed", -1, "seed"),
    ("subsample", "workers", 0, "workers"),
    ("generate", "kind", "perlin", "kind"),
    ("generate", "name", "", "generate name"),
    ("generate", "nx", 4.5, "generate nx"),
    ("generate", "ny", 0, "generate ny"),
    ("generate", "nz", True, "generate nz"),
    ("generate", "t", "abc", "generate t"),
    ("generate", "params", [1, 2], "generate params"),
    ("generate", "seed", -1, "generate seed"),
    ("shared", "dtype", "csv", "dims"),  # a csv file holds a 2-D snapshot; the case is 3-D
]
# One bad value for every flag of every command that takes it,
# (command, flag, value, what the error names).  "FILE" stands for a
# regular file in the test's directory.
BAD_FLAGS = [
    ("subsample", "--method", "bogus", "method"),
    ("subsample", "--seed", "-1", "seed"),
    ("subsample", "--workers", "0", "workers"),
    ("subsample", "--num-samples", "0", "num_samples"),
    ("subsample", "--timesteps", "0,z", "--timesteps"),
    ("subsample", "--output-dir", "FILE", "--output-dir"),
    ("compare", "--output-dir", "FILE/o", "--output-dir"),
    ("compare", "--methods", "random,bogus", "--methods"),
    ("compare", "--seeds", "3,-1", "--seeds"),
    ("bench", "--output-dir", "FILE", "--output-dir"),
    ("bench", "--workers", "2,0", "--workers"),
    ("bench", "--repeats", "0", "--repeats"),
    ("info", "--method", "bogus", "method"),
    ("info", "--timesteps", "1,1", "timesteps"),
    ("generate", "--seed", "-1", "--seed"),
    ("generate", "--output-dir", "FILE", "--output-dir"),
]


class TestConfigTable:
    """Every bad config value or flag exits 1 with an error that names it,
    makes no output directory and opens no data file."""

    @staticmethod
    def _run(command, cfg, tmp_path, output_dir, extra, opened, capsys):
        # info writes nothing, so it takes no --output-dir
        out = [] if command == "info" else ["--output-dir", output_dir]
        if command == "compare" and "--methods" not in extra:
            extra = [*extra, "--methods", "random,lhs"]
        assert run_cli([command, cfg, *out, *extra]) == 1
        data = str(tmp_path / "data")
        assert not [p for p in opened if p.startswith(data)]
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["subsample", "compare", "bench", "info"])
    @pytest.mark.parametrize("section, key, value, named",
                             [row for row in BAD_KEYS if row[0] != "generate"],
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_run_config_key(self, case, tmp_path, capsys, opened, command, section, key,
                            value, named):
        doc = yaml.safe_load(case.read_text())
        doc[section][key] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        err = self._run(command, cfg, tmp_path, tmp_path / "o", [], opened, capsys)
        assert named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, named",
                             [row for row in BAD_KEYS if row[0] == "generate"],
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_generate_key(self, tmp_path, capsys, opened, section, key, value, named):
        spec = {"kind": "gaussian_field", "nx": 4, "ny": 4, "nz": 4, key: value}
        cfg = tmp_path / "g.yaml"
        cfg.write_text(yaml.safe_dump({"generate": spec}))
        err = self._run("generate", cfg, tmp_path, tmp_path / "o", [], opened, capsys)
        assert named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, value, named", BAD_FLAGS)
    def test_flag(self, case, tmp_path, capsys, opened, command, flag, value, named):
        if command == "generate":
            case.write_text("generate:\n  kind: gaussian_field\n  nx: 4\n  ny: 4\n  nz: 4\n")
        (tmp_path / "FILE").write_text("")
        out = tmp_path / "o"
        if flag == "--output-dir":
            out, extra = tmp_path / value, []
        else:
            extra = [flag, value]
        err = self._run(command, case, tmp_path, out, extra, opened, capsys)
        assert named in err
        assert not out.exists() or out.is_file()

    def test_table_covers_every_key_and_flag(self):
        keys = {(section, key) for section, key, *_ in BAD_KEYS}
        want = {(section, key) for section, names in _SECTIONS.items() for key in names}
        want |= {("generate", key) for key in cli._GENERATE_KEYS}
        assert keys == want
        flags = {(command, flag) for command, flag, *_ in BAD_FLAGS}
        assert {flag for _, flag in flags} == {f"--{name}" for name in cli._FLAGS}
        for command, (_, names) in cli._COMMANDS.items():
            assert {flag for c, flag in flags if c == command} <= {f"--{n}" for n in names.split()}
