"""Command-line front end: subsample, compare, bench, generate, info.

The YAML config file is the source of truth; command-line flags
override it and the effective config is echoed into run provenance.
Exit codes: 0 success, 1 user/config error, 2 internal invariant
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
    ConfigError,
    GridDims,
    IngestionError,
    RunConfig,
    VALID_METHODS,
    load_dataset,
    num_blocks,
    parse_config,
)
from .samplers import config_digest, resolve_seed, run_pipeline

DEFAULT_COMPARE_METHODS = ["random", "stratified", "lhs", "uips", "maxent"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curator",
        description="Curate sparse, information-rich subsets of gridded datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="YAML config file")
        p.add_argument("--method", help="point sampling method override")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--workers", help="worker count (bench: comma list)")
        p.add_argument("--output-dir", default=None, help="output directory (default ./snapshots)")
        p.add_argument("--num-samples", type=int, help="samples per cube override")
        p.add_argument("--timesteps", help="comma-separated timestep list override")

    p = sub.add_parser("subsample", help="run the sampling pipeline and write a sample set")
    add_common(p)
    p = sub.add_parser("compare", help="compare sampling methods on coverage metrics")
    add_common(p)
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--seeds", help="comma-separated seed list")
    p = sub.add_parser("bench", help="strong-scaling study over worker counts")
    add_common(p)
    p.add_argument("--repeats", type=int, default=3)
    p = sub.add_parser("generate", help="write a synthetic raw-binary dataset and config")
    add_common(p)
    p = sub.add_parser("info", help="print the effective config and expected output size")
    add_common(p)
    return parser


def _int_list(flag: str, text: str) -> list[int]:
    """Parse a comma-separated integer flag; a bad entry is a ConfigError
    that names the flag (argparse's own errors exit 2, which is reserved
    for invariant violations)."""
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
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    elif not explicit_seed and os.environ.get("CURATOR_SEED"):
        config = replace(config, seed=_one_int("CURATOR_SEED", os.environ["CURATOR_SEED"]))
    if args.method is not None:
        config = replace(config, method=args.method)
    if args.num_samples is not None:
        config = replace(config, num_samples=args.num_samples)
    if args.timesteps is not None:
        config = replace(config, timesteps=_int_list("--timesteps", args.timesteps))
    if args.workers is not None and args.command != "bench":
        config = replace(config, workers=_one_int("--workers", args.workers))
    return config


def _output_dir(args) -> Path:
    out = Path(args.output_dir) if args.output_dir else Path("./snapshots")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_subsample(args) -> int:
    config = _load_config(args)
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
    config = _load_config(args)
    methods = args.methods.split(",") if args.methods else list(DEFAULT_COMPARE_METHODS)
    for m in methods:
        if m not in VALID_METHODS:
            raise ConfigError(
                f"unknown method {m!r}; valid: {', '.join(VALID_METHODS)}"
            )
    seeds = _int_list("--seeds", args.seeds) if args.seeds else [resolve_seed(config.seed)]
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
    config = _load_config(args)
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
    kind = spec["kind"]
    if kind not in synthetic.GENERATOR_KINDS:
        raise ConfigError(
            f"unknown kind {kind!r}; valid: {', '.join(synthetic.GENERATOR_KINDS)}"
        )
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    if kind == "cylinder_wake":
        dims = GridDims(nx=spec["nx"], ny=spec["ny"], nz=1, nt=1, dims=2)
    else:
        dims = GridDims(nx=spec["nx"], ny=spec["ny"], nz=spec.get("nz", 1), nt=1, dims=3)
    dataset = synthetic.generate(
        kind, dims, seed=seed, t=float(spec.get("t", 0.0)), params=spec.get("params")
    )

    out_dir = _output_dir(args)
    data_dir = out_dir / spec.get("name", kind)
    written = synthetic.save_dataset(dataset, data_dir)
    subsample = {
        k: v for k, v in (doc.get("subsample") or {}).items()
        if k in ("hypercubes", "method", "num_hypercubes", "num_samples",
                 "num_clusters", "nxsl", "nysl", "nzsl")
    }
    cfg_text = synthetic.dataset_config(dataset, data_dir, seed=seed, **subsample)
    cfg_path = data_dir / "case.yaml"
    cfg_path.write_text(cfg_text)
    print(f"Wrote {len(written)} field files under {data_dir}")
    print(f"Wrote {cfg_path}")
    return 0


def cmd_info(args) -> int:
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


_COMMANDS = {
    "subsample": cmd_subsample,
    "compare": cmd_compare,
    "bench": cmd_bench,
    "generate": cmd_generate,
    "info": cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, IngestionError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OutputMismatchError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
