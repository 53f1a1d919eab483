"""Command-line front end: subsample, compare, bench, generate, info.

The YAML config file is the source of truth; command-line flags
override it and the effective config is echoed into run provenance.
Exit codes: 0 success, 1 usage or config error, 2 internal invariant
violation.
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
    SUBSAMPLE_KEYS,
    ConfigError,
    GridDims,
    IngestionError,
    RunConfig,
    load_dataset,
    num_blocks,
    parse_config,
)
from .samplers import config_digest, resolve_seed, run_pipeline

DEFAULT_COMPARE_METHODS = ["random", "stratified", "lhs", "uips", "maxent"]


def _int_list(flag: str, text: str) -> list[int]:
    """Parse a comma-separated integer flag; a bad entry is a ConfigError
    that names the flag."""
    values = []
    for entry in str(text).split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise ConfigError(f"{flag}: {entry!r} is not an integer") from None
    return values


def _one_int(flag: str, text: str) -> int:
    """Parse a single-integer flag or variable; errors name it."""
    values = _int_list(flag, text)
    if len(values) != 1:
        raise ConfigError(f"{flag} takes one integer, got {text!r}")
    return values[0]


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    config = parse_config(text)

    # only the sections parse_config reads a seed from make it explicit
    doc = yaml.safe_load(text)
    explicit_seed = any(
        isinstance(doc.get(sec), dict) and "seed" in doc[sec] for sec in ("shared", "subsample")
    )
    # one replace, so the config is checked with every override at once
    # (e.g. --method stratified with the --num-samples its strata need)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif not explicit_seed and os.environ.get("CURATOR_SEED"):
        overrides["seed"] = _one_int("CURATOR_SEED", os.environ["CURATOR_SEED"])
    if getattr(args, "method", None) is not None:  # compare takes --methods instead
        overrides["method"] = args.method
    if args.num_samples is not None:
        overrides["num_samples"] = args.num_samples
    if args.timesteps is not None:
        overrides["timesteps"] = _int_list("--timesteps", args.timesteps)
    if args.workers is not None and args.command != "bench":
        overrides["workers"] = _one_int("--workers", args.workers)
    return replace(config, **overrides)


def _require_num_samples(config: RunConfig) -> RunConfig:
    """Every method but full needs num_samples; checked before any file is read."""
    if config.method != "full" and config.num_samples is None:
        raise ConfigError(f"num_samples is required for method {config.method!r}")
    return config


def _output_dir(args) -> Path:
    out = Path(args.output_dir) if args.output_dir else Path("./snapshots")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_subsample(args) -> int:
    """Run the sampling pipeline and write a sample set."""
    config = _require_num_samples(_load_config(args))
    dataset = load_dataset(config)
    out_dir = _output_dir(args)

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
    train = config.train if isinstance(config.train, dict) else {}
    cost = metrics.cost_estimate(
        m=len(sample),
        p=float(train.get("params", 1e6)),
        e=float(train.get("epochs", 1000)),
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
    seeds = _int_list("--seeds", args.seeds) if args.seeds else [resolve_seed(config.seed)]
    for m in methods:
        _require_num_samples(replace(config, method=m))  # checks each method before loading
    dataset = load_dataset(config)
    out_dir = _output_dir(args)

    rows, full_ref, first_samples = metrics.compare_methods(config, dataset, methods, seeds)
    # wall-clock lives in the sidecar so the CSV payload stays byte-stable
    metrics.comparison_to_csv(rows, out_dir / "comparison.csv")
    timing = {
        f"{r['method']}/seed={r['seed']}/{r['variable']}": r["sampling_seconds"]
        for r in rows
    }
    (out_dir / "comparison_timing.json").write_text(json.dumps(timing, indent=2))

    for method, values in first_samples.items():
        metrics.histogram_comparison_csv(
            full_ref.histogram, values, out_dir / f"hist_{method}.csv"
        )
    print(f"Wrote {out_dir / 'comparison.csv'} ({len(rows)} rows) "
          f"and {len(methods)} histogram CSVs")
    print("KL direction: D(full || sample), natural log (nats)")
    return 0


def _bench_worker_counts(args) -> list[int]:
    if args.workers:
        counts = _int_list("--workers", args.workers)
        if min(counts) < 1:
            raise ConfigError(f"--workers counts must be >= 1, got {args.workers!r}")
        return sorted(set(counts) | {1})
    counts, w = [], 1
    host = os.cpu_count() or 1
    while w <= host:
        counts.append(w)
        w *= 2
    return counts


def cmd_bench(args) -> int:
    """Strong-scaling study over worker counts."""
    config = _require_num_samples(_load_config(args))
    dataset = load_dataset(config)
    out_dir = _output_dir(args)
    worker_counts = _bench_worker_counts(args)

    result = bench.run_scaling_study(
        config, dataset, worker_counts, repeats=max(args.repeats, 1)
    )
    result.to_csv(out_dir / "scaling.csv")
    (out_dir / "knee.json").write_text(
        json.dumps({"knee_workers": result.knee_workers, "threshold": 0.5}, indent=2)
    )
    for w, t, s, e in result.rows():
        print(f"workers={w} wall={t:.3f}s speedup={s:.2f} efficiency={e:.2f}")
    print(f"Knee: {result.knee_workers}")
    return 0


def cmd_generate(args) -> int:
    """Write a synthetic raw-binary dataset and config."""
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    doc = yaml.safe_load(path.read_text()) or {}
    spec = doc.get("generate")
    if not isinstance(spec, dict):
        raise ConfigError("missing required section: generate")
    for req in ("kind", "nx", "ny"):
        if req not in spec:
            raise ConfigError(f"missing required key: {req}")
    # generate sets the data path and the seed itself
    subsample = {
        k: v for k, v in (doc.get("subsample") or {}).items() if k not in ("path", "seed")
    }
    unknown = [str(k) for k in subsample if k not in SUBSAMPLE_KEYS]
    if unknown:
        raise ConfigError(f"unknown subsample key(s): {', '.join(unknown)}")
    kind = spec["kind"]
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    dataset = synthetic.generate(
        kind, (spec["nx"], spec["ny"], spec.get("nz", 1)), seed=seed,
        t=float(spec.get("t", 0.0)), params=spec.get("params"),
    )

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
    nx = len(range(0, config.nx, config.nxskip))
    ny = len(range(0, config.ny, config.nyskip))
    nz = len(range(0, config.nz, config.nzskip))
    dims = GridDims(nx=nx, ny=ny, nz=nz, nt=1, dims=config.dims)
    cubes = num_blocks(dims, config.cube_extents)
    cube_volume = config.nxsl * config.nysl * config.nzsl
    per_cube = cube_volume if config.method == "full" else config.num_samples
    n_steps = (
        len(config.timesteps) if isinstance(config.timesteps, list) else None
    )

    print("Effective config:")
    for key, value in asdict(config).items():
        print(f"  {key}: {value}")
    print(f"Config digest: {config_digest(config)}")
    print(f"Dataset shape (post-skip): {nx} x {ny} x {nz}")
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
    "output-dir": dict(help="output directory (default ./snapshots)"),
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
