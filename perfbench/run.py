"""curator benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tg128-maxent --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's input files from --seed, then runs
its operation as a closed loop: one client, one operation at a time,
in-process through `curator.cli.main`, for --seconds seconds.  Every
operation's output is checked; a failed check counts as a failure and is
never timed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
timed operation, scaled to a reference host speed if it runs in one
process (wall_norm_s, see calibrate.py), the median of repeated
parse_config + load_dataset (setup_s), and the peak RSS of one operation
in a fresh process (peak_rss_mb).  The first operation of a run is a
warm-up: it is checked and becomes the reference output, but it is not
timed.

--trace 1 alternates untraced and traced operations, reports the
per-layer metrics from the traced ones, and writes the spans under
.perfbench_work/traces/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from calibrate import REF_CHUNK_S, calibrate
from checks import CheckError, check_compare, check_subsample, output_digest
from spans import COMPUTED, Tracer, aggregate, layer_metrics, merge
from workloads import WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
MIN_TIMED_OPS = 3  # per kind: untraced, and with --trace 1 also traced
# In an untraced run, a block of reference chunks runs after each operation
# for this share of the operation's seconds, so the blocks on either side
# of an operation sample the host's speed close to when it ran.
CAL_SHARE = 0.25
# No operation starts after this many seconds of a run, so the run ends
# well inside the 180 s a run may take even if the program slows down.
RUN_CAP_S = 120.0


def import_program() -> str | None:
    """Import curator from this checkout's sources; returns an error or None."""
    if not (SRC / "curator" / "__init__.py").is_file():
        return f"no curator sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import curator

    if Path(curator.__file__).resolve().parent != SRC / "curator":
        return f"imported curator from {curator.__file__}, not from {SRC}"
    return None


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    """One benchmark run of one workload: inputs, operations, tallies."""

    def __init__(self, spec: Workload, seed: int, run_dir: Path):
        from curator import cli

        self.cli = cli
        self.spec = spec
        self.seed = seed
        self.run_dir = run_dir
        self.config_path, self.fields = generate(spec, seed, run_dir / "data")
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None  # digest of the checked reference output
        self.quality: dict[str, float] = {}
        self._ops = 0

    def argv(self, out_dir: Path, workers: int | None = None) -> list[str]:
        return self.spec.cli_args(self.config_path, out_dir, self.seed, workers)

    def setup_seconds(self) -> list[float]:
        """Time parse_config + load_dataset of the workload's files."""
        from curator.grid import load_dataset, parse_config

        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            dataset = load_dataset(parse_config(self.config_path.read_text()))
            times.append(time.perf_counter() - t0)
            del dataset
        return times

    def operation(self, workers: int | None = None, tracer: Tracer | None = None):
        """Run one operation and check its output.

        The first successful operation is the reference: its output gets
        the full check and the quality figures.  Every later one must
        reproduce its digest exactly.  Returns the operation's id and the
        seconds it took, or None if it failed.
        """
        op = self._ops
        self._ops += 1
        out_dir = self.run_dir / f"op{op}"
        argv = self.argv(out_dir, workers)
        self.attempted += 1
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    t0 = time.perf_counter()
                    rc = self.cli.main(argv)
                    seconds = time.perf_counter() - t0
                else:
                    with tracer.operation(op) as root:
                        rc = self.cli.main(argv)
                    seconds = root.seconds
            if rc != 0:
                raise CheckError(f"exit code {rc}")
            digest = output_digest(self.spec, out_dir)
            if self.reference is None:
                self.quality = self._check_fully(out_dir)
                self.reference = digest
            elif digest != self.reference:
                raise CheckError(f"output of {argv} differs from the reference output")
            return op, seconds
        except Exception:  # any fault of the program is a failed operation
            self.failed += 1
            print(f"operation {op} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return op, None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_fully(self, out_dir: Path) -> dict[str, float]:
        """Full output check; returns kl_nats and tail_capture of the output."""
        from curator.metrics import coverage_report
        from curator.samplers import SampleSet

        spec = self.spec
        if spec.command == "compare":
            runs = check_compare(spec, out_dir, self.seed)
            runs = [r for r in runs if r["variable"] == spec.cluster_var]
            return {
                "kl_nats": float(np.mean([float(r["kl_nats"]) for r in runs])),
                "tail_capture": float(np.mean([float(r["tail_capture"]) for r in runs])),
            }
        columns, data = check_subsample(spec, out_dir, self.fields)
        full = {spec.cluster_var: self.fields[spec.cluster_var].ravel()}
        report = coverage_report(SampleSet(columns=columns, data=data), full)
        m = report.per_variable[spec.cluster_var]
        return {"kl_nats": m["kl_full_to_sample"], "tail_capture": m["tail_capture"]}

    def peak_rss_mb(self) -> float | None:
        """Peak RSS of a fresh process that runs one operation only."""
        out_dir = self.run_dir / "rss_probe"
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rss_probe.py"), str(SRC), *self.argv(out_dir)],
                capture_output=True, text=True, timeout=120,
            )
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or probe["rc"] != 0:
                raise CheckError(f"probe exit codes {proc.returncode}/{probe['rc']}: {proc.stderr}")
            if output_digest(self.spec, out_dir) != self.reference:
                raise CheckError("probe output differs from the reference output")
            return probe["peak_rss_kib"] / 1024.0
        except Exception:
            self.failed += 1
            print(f"peak RSS probe failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def timed_loop(run: Run, seconds: float, started: float, tracer: Tracer | None,
               norm: list[float] | None = None, chunks: list[float] | None = None):
    """Closed loop of operations for `seconds`; with a tracer, untraced and
    traced operations alternate.  Returns (untraced, traced) samples as
    lists of (op id, seconds).

    With `norm` and `chunks` lists (untraced runs only), a block of
    reference chunks runs before the first operation and after each one.
    Each operation's seconds, scaled by REF_CHUNK_S over the mean of the
    median chunk of the blocks on either side of it, go to `norm`; every
    chunk's seconds go to `chunks`."""
    untraced: list[tuple[int, float]] = []
    traced: list[tuple[int, float]] = []
    kinds = 1 if tracer is None else 2

    def block(op_seconds: float) -> float:
        times = calibrate(CAL_SHARE * op_seconds)
        chunks.extend(times)
        return _median(times)

    loop_start = time.perf_counter()
    before = block(1.0) if norm is not None else 0.0
    last = 0.0  # seconds of the previous iteration, reference chunks included
    i = 0
    while True:
        now = time.perf_counter()
        enough = i >= MIN_TIMED_OPS * kinds and now - loop_start + last > seconds
        if enough or now - started + last > RUN_CAP_S:
            break
        use_tracer = tracer if i % kinds == 1 else None
        op_start = time.perf_counter()
        op, t = run.operation(tracer=use_tracer)
        if norm is not None:
            after = block(time.perf_counter() - op_start)
            if t is not None:
                norm.append(t * REF_CHUNK_S / ((before + after) / 2))
            before = after
        if t is None:
            if run.reference is None:
                break
        else:
            (untraced if use_tracer is None else traced).append((op, t))
        last = time.perf_counter() - now
        i += 1
    return untraced, traced


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset")
                         for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def end_to_end(run: Run, seconds: float, started: float):
    setup = run.setup_seconds()
    # Warm-up and reference, at 1 worker: every timed operation, at the
    # workload's worker count, must reproduce these bytes.
    run.operation(workers=1)
    norm: list[float] = []
    chunks: list[float] = []
    if run.spec.workers == 1:  # see calibrate.py for why only these are scaled
        untraced, _ = timed_loop(run, seconds, started, None, norm, chunks)
    else:
        untraced, _ = timed_loop(run, seconds, started, None)
    walls = [t for _, t in untraced]
    rss = run.peak_rss_mb() if run.reference is not None else None
    metrics = {
        "wall_norm_s": _median(norm if chunks else walls),
        "setup_s": _median(setup),
        "peak_rss_mb": rss or 0.0,
    }
    summary = [
        ("wall_norm_s", metrics["wall_norm_s"], "s",
         f"wall_s with each op x {REF_CHUNK_S} s / chunk_s around it" if chunks
         else "wall_s, unscaled: the op runs pool workers"),
        ("wall_s", _median(walls), "s", f"median of n={len(walls)} ops"
         + (f", min {min(walls):.4f}, max {max(walls):.4f}" if walls else "")),
        ("chunk_s", _median(chunks), "s", f"median of n={len(chunks)} reference chunks"),
        ("setup_s", metrics["setup_s"], "s", f"median of n={len(setup)} set-ups"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "one op in a fresh process"),
        ("kl_nats", run.quality.get("kl_nats", float("nan")), "nats", "KL(full||sample)"),
        ("tail_capture", run.quality.get("tail_capture", float("nan")), "ratio", ""),
        ("fail_frac", run.failed / run.attempted, "ratio",
         f"{run.failed} of {run.attempted} ops"),
    ]
    return metrics, summary, None


def traced(run: Run, seconds: float, started: float):
    tracer = Tracer()
    # With more than one worker, spans inside pool workers are lost; the
    # reference operation runs traced at 1 worker and supplies them.
    w1_pass = run.spec.workers > 1
    ref_op, _ = run.operation(workers=1, tracer=tracer if w1_pass else None)
    untraced, traced_ops = timed_loop(run, seconds, started, tracer)
    per_op = []
    for op, wall in traced_ops:
        if w1_pass:
            agg = merge(aggregate(tracer.spans, op, pool_side=False),
                        aggregate(tracer.spans, ref_op, pool_side=True))
        else:
            agg = aggregate(tracer.spans, op)
        per_op.append(layer_metrics(agg, wall))
    metrics = {k: _median([m[k] for m in per_op]) for k in layer_metrics({}, 1.0)}
    t_traced = _median([t for _, t in traced_ops])
    metrics.update({
        "trace.wall_s": t_traced,
        "trace.overhead_s": t_traced - _median([t for _, t in untraced]),
        "trace.pool_spans_from_1worker_pass": int(w1_pass),
        "metrics.kl_nats": run.quality.get("kl_nats", 0.0),
        "metrics.tail_capture": run.quality.get("tail_capture", 0.0),
    })
    summary = [(k, v, "", "computed" if k in COMPUTED else "") for k, v in metrics.items()]
    summary.append(("untraced ops", len(untraced), "", ""))
    summary.append(("traced ops", len(traced_ops), "", ""))
    if w1_pass:
        summary.append(("note", 0, "", "spans below bench.parallel_map come from the "
                        "traced reference pass at 1 worker"))
    spans = [asdict(s) for s in tracer.spans]
    return metrics, summary, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}

    started = time.perf_counter()
    spec = WORKLOADS[args.workload]
    run_dir = WORK / f"{spec.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        run = Run(spec, args.seed, run_dir)
        measure = traced if args.trace else end_to_end
        metrics, summary, spans = measure(run, args.seconds, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ between "
              "the benchmark and BENCHMARK.json", file=sys.stderr)
        return 2
    host = host_record()
    for name, value, unit, note in summary:
        print(f"{name:40s} {value:>16.6g} {unit:6s} {note}")
    print("host " + json.dumps(host))
    if spans is not None:
        trace_path = WORK / "traces" / f"{spec.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"workload": spec.name, "seed": args.seed,
                                          "host": host, "metrics": metrics,
                                          "computed": list(COMPUTED), "spans": spans}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    correct = run.failed == 0 and run.reference is not None
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
