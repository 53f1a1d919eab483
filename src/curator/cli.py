"""Command-line front end: subsample, compare, bench, generate, info.

The YAML config file is the source of truth; flags override it, and
``RunConfig.check_run`` checks the result on the strided grid before
any file is read.  The effective config is echoed into run provenance.
Exit codes: 0 success, 1 usage or config error, 2 invariant violation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import yaml

from . import bench, metrics, synthetic
from .bench import OutputMismatchError
from .grid import (
    VALID_METHODS,
    ConfigError,
    IngestionError,
    RunConfig,
    check_distinct,
    check_section,
    check_seed,
    int_list,
    is_int,
    is_number,
    load_dataset,
    load_yaml,
    one_int,
    parse_config,
)
from .samplers import config_digest, run_pipeline

DEFAULT_COMPARE_METHODS = ["random", "stratified", "lhs", "uips", "maxent"]
_GENERATE_KEYS = "kind name nx ny nz t params seed".split()


def _read_config(path: Path, parse):
    """parse(the text of the config file at path).  An error about the
    file as a whole, missing or not YAML, names the file."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return parse(path.read_text())
    except ConfigError as exc:
        if isinstance(exc.__cause__, yaml.YAMLError):
            raise ConfigError(f"{path}: {exc}") from None
        raise


def _load_config(args) -> RunConfig:
    config = _read_config(Path(args.config), parse_config)
    # one replace, so the config is checked with every override at once
    # (e.g. --method stratified with the --num-samples its strata need)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "method", None) is not None:  # compare takes --methods instead
        overrides["method"] = args.method
    if args.num_samples is not None:
        overrides["num_samples"] = args.num_samples
    if args.timesteps is not None:
        overrides["timesteps"] = int_list("--timesteps", args.timesteps)
    if args.workers is not None and args.command != "bench":
        overrides["workers"] = one_int("--workers", args.workers)
    return replace(config, **overrides)


def _output_dir(args) -> Path:
    """The --output-dir path, checked before any data file is read: the
    nearest part of it that exists must be a directory.  A run makes it
    once it has data to write."""
    out = Path(args.output_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--output-dir {out}: {existing} is not a directory")
    return out


def cmd_subsample(args) -> int:
    """Run the sampling pipeline and write a sample set."""
    config = _load_config(args)
    config.check_run(config.strided_dims(), [config.method])
    out_dir = _output_dir(args)
    dataset = load_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sample = run_pipeline(config, dataset)
    elapsed = time.perf_counter() - t0

    prefix = config.format_fileprefix()
    csv_path = out_dir / f"{prefix}.csv"
    t0 = time.perf_counter()
    sample.to_csv(csv_path)
    write_seconds = time.perf_counter() - t0
    sidecar = {
        "provenance": sample.provenance,
        "effective_config": asdict(config),
        "wall_seconds": elapsed,
        "write_seconds": write_seconds,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out_dir / f"{prefix}.json").write_text(json.dumps(sidecar, indent=2, default=str))

    phases = sample.provenance["phase_seconds"]
    cost = metrics.cost_estimate(
        m=len(sample),
        p=float(config.train.get("params", 1e6)),
        e=float(config.train.get("epochs", 1000)),
        c_m=elapsed,
    )
    print(f"Wrote {csv_path}")
    print(f"Points emitted: {len(sample)}")
    print(f"Phase 1 seconds: {phases['phase1']:.3f}")
    print(f"Phase 2 seconds: {phases['phase2']:.3f}")
    print(f"Total Cost Proxy: {cost['total']:.6g} proxy units")
    return 0


def cmd_compare(args) -> int:
    """Compare sampling methods on coverage metrics."""
    config = _load_config(args)
    methods = args.methods.split(",") if args.methods else list(DEFAULT_COMPARE_METHODS)
    seeds = int_list("--seeds", args.seeds) if args.seeds else [config.seed]
    check_distinct("--methods", methods)
    check_distinct("--seeds", seeds)
    for seed in seeds:
        check_seed("--seeds", seed)
    for m in methods:
        if m not in VALID_METHODS:
            raise ConfigError(f"--methods: unknown method {m!r}; valid: {', '.join(VALID_METHODS)}")
    config.check_run(config.strided_dims(), methods)  # each method, before loading
    out_dir = _output_dir(args)
    dataset = load_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, h_full, histograms = metrics.compare_methods(config, dataset, methods, seeds)
    # wall-clock lives in the sidecar so the CSV payload stays byte-stable
    metrics.comparison_to_csv(rows, out_dir / "comparison.csv")
    timing = {
        f"{r['method']}/seed={r['seed']}/{r['variable']}": r["sampling_seconds"]
        for r in rows
    }
    (out_dir / "comparison_timing.json").write_text(json.dumps(timing, indent=2))

    for method, h_sample in histograms.items():
        metrics.histogram_comparison_csv(h_full, h_sample, out_dir / f"hist_{method}.csv")
    print(f"Wrote {out_dir / 'comparison.csv'} ({len(rows)} rows) "
          f"and {len(methods)} histogram CSVs")
    print("KL direction: D(full || sample), natural log (nats)")
    return 0


def _bench_worker_counts(args) -> list[int]:
    if args.workers:
        counts = int_list("--workers", args.workers)
        if min(counts) < 1:
            raise ConfigError(f"--workers counts must be >= 1, got {args.workers!r}")
        return sorted(set(counts) | {1})
    # the powers of two up to the host's core count
    return [2**i for i in range((os.cpu_count() or 1).bit_length())]


def cmd_bench(args) -> int:
    """Strong-scaling study over worker counts."""
    config = _load_config(args)
    config.check_run(config.strided_dims(), [config.method])
    worker_counts = _bench_worker_counts(args)
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be an integer >= 1, got {args.repeats}")
    out_dir = _output_dir(args)
    dataset = load_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = bench.run_scaling_study(config, dataset, worker_counts, repeats=args.repeats)
    result.to_csv(out_dir / "scaling.csv")
    (out_dir / "knee.json").write_text(
        json.dumps({"knee_workers": result.knee_workers, "threshold": bench.KNEE_THRESHOLD},
                   indent=2)
    )
    for w, t, s, e in result.rows():
        print(f"workers={w} wall={t:.3f}s speedup={s:.2f} efficiency={e:.2f}")
    print(f"Knee: {result.knee_workers}")
    return 0


def _check_params(kind: str, params: dict) -> None:
    """Each generate param is one the kind takes: n_vortices an integer
    >= 0, bimodal_field's means, sigmas and weights lists of numbers of one
    length (its defaults' where absent), any other a number.  An error
    names generate params.<name>."""
    valid = synthetic.GENERATOR_PARAMS[kind]
    for name, value in params.items():
        if name not in valid:
            raise ConfigError(f"generate params.{name} is not a param of kind {kind}; "
                              f"valid: {', '.join(valid)}")
        if name in synthetic.BIMODAL_DEFAULTS:
            ok, what = isinstance(value, list) and all(map(is_number, value)), "a list of numbers"
        elif name == "n_vortices":
            ok, what = is_int(value) and value >= 0, "an integer >= 0"
        else:
            ok, what = is_number(value), "a number"
        if not ok:
            raise ConfigError(f"generate params.{name} must be {what}, got {value!r}")
    if kind == "bimodal_field":
        lengths = {f"generate params.{name}": len(params.get(name, v))
                   for name, v in synthetic.BIMODAL_DEFAULTS.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigError(f"{', '.join(lengths)} must be of one length, "
                              f"got {list(lengths.values())}")


def cmd_generate(args) -> int:
    """Write a synthetic raw-binary dataset and config."""
    doc = _read_config(Path(args.config), load_yaml) or {}
    spec = doc.get("generate")
    if not isinstance(spec, dict):
        raise ConfigError("missing required section: generate")
    check_section("generate", spec, _GENERATE_KEYS)
    for req in ("kind", "nx", "ny"):
        if req not in spec:
            raise ConfigError(f"missing required key: {req}")
    kind = spec["kind"]
    if kind not in synthetic.GENERATOR_KINDS:
        raise ConfigError(
            f"unknown generator kind {kind!r}; valid: {', '.join(synthetic.GENERATOR_KINDS)}"
        )
    for key, least in (("nx", 1), ("ny", 1), ("nz", 1), ("seed", 0)):
        value = spec.get(key, least)
        if not (is_int(value) and value >= least):
            raise ConfigError(f"generate {key} must be an integer >= {least}, got {value!r}")
    # cylinder_wake is 2-D; every other kind is 3-D, with no 2-D form to default to
    if kind == "cylinder_wake" and spec.get("nz", 1) != 1:
        raise ConfigError(f"generate nz must be 1 for kind cylinder_wake, got {spec['nz']!r}")
    if kind != "cylinder_wake" and "nz" not in spec:
        raise ConfigError(f"generate nz is required for kind {kind}")
    t = spec.get("t", 0.0)
    if not is_number(t):
        raise ConfigError(f"generate t must be a number, got {t!r}")
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError(f"generate params must be a mapping, got {params!r}")
    _check_params(kind, params)
    if "name" in spec and not (isinstance(spec["name"], str) and spec["name"]):
        raise ConfigError(f"generate name must be a non-empty string, got {spec['name']!r}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"generate --seed must be an integer >= 0, got {args.seed}")
    subsample = doc.get("subsample") or {}
    check_section("subsample", subsample)
    # generate sets the data path and the seed itself
    subsample = {k: v for k, v in subsample.items() if k not in ("path", "seed")}
    seed = args.seed if args.seed is not None else spec.get("seed", 0)
    dataset = synthetic.generate(
        kind, (spec["nx"], spec["ny"], spec.get("nz", 1)), seed=seed, t=float(t), params=params,
    )

    # the case config is checked before save_dataset makes any directory
    data_dir = _output_dir(args) / spec.get("name", kind)
    cfg_text = synthetic.dataset_config(dataset, data_dir, seed=seed, **subsample)
    written = synthetic.save_dataset(dataset, data_dir)
    cfg_path = data_dir / "case.yaml"
    cfg_path.write_text(cfg_text)
    print(f"Wrote {len(written)} field files under {data_dir}")
    print(f"Wrote {cfg_path}")
    return 0


def cmd_info(args) -> int:
    """Print the effective config and expected output size."""
    config = _load_config(args)
    dims = config.strided_dims()
    cubes = config.check_run(dims, [])  # the cube rules; info needs no num_samples
    cube_volume = config.nxsl * config.nysl * config.nzsl
    per_cube = cube_volume if config.method == "full" else config.num_samples
    n_steps = len(config.timesteps) if isinstance(config.timesteps, list) else None

    print("Effective config:")
    for key, value in asdict(config).items():
        print(f"  {key}: {value}")
    print(f"Config digest: {config_digest(config)}")
    print(f"Dataset shape (post-skip): {dims.nx} x {dims.ny} x {dims.nz}")
    print(f"{cubes} hypercubes")
    if per_cube is None:
        print("Expected rows: unknown (num_samples not set)")
    else:
        rows_per_step = config.num_hypercubes * per_cube
        if n_steps is None:
            print(f"Expected rows per timestep: {rows_per_step}")
        else:
            print(f"Expected rows: {rows_per_step * n_steps}")
    return 0


_COMMANDS = {  # each command and the flags it reads; it takes no others
    "subsample": (cmd_subsample, "method seed workers num-samples timesteps output-dir"),
    "compare": (cmd_compare, "seed workers num-samples timesteps output-dir methods seeds"),
    "bench": (cmd_bench, "method seed workers num-samples timesteps output-dir repeats"),
    "generate": (cmd_generate, "seed output-dir"),
    "info": (cmd_info, "method seed workers num-samples timesteps"),
}
_FLAGS = {
    "method": dict(help="point sampling method override"),
    "seed": dict(type=int, help="random seed override"),
    "workers": dict(help="worker count (bench: comma list)"),
    "num-samples": dict(type=int, help="samples per cube override"),
    "timesteps": dict(help="comma-separated timestep list override"),
    "output-dir": dict(default="./snapshots", help="output directory (default ./snapshots)"),
    "methods": dict(help="comma-separated method list"),
    "seeds": dict(help="comma-separated seed list"),
    "repeats": dict(type=int, default=3, help="timed runs per worker count"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as a bad config value does
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curator", description="Curate sparse, information-rich "
                     "subsets of gridded datasets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__, allow_abbrev=False)
        p.add_argument("config", help="YAML config file")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (ConfigError, IngestionError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OutputMismatchError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
