"""Sampling-quality metrics, method comparison, and the training-cost proxy.

Coverage is judged against density-normalized histograms anchored to the
full data's min-max range, so bin occupancy is comparable across
methods.  The KL direction is D(full || sample): a sample is penalized
for missing regions where the full data has mass.  All divergences are
reported in nats.  The full-data side of a variable's scores, its
histogram and its per-bin tail counts, is a ``FullReference``: built
once per variable and shared by every sample scored against it.  Costs
are wall-clock seconds plus a proxy term; no hardware energy counters
are involved, and reports label units as "proxy units".
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import entropy
from .bench import parallel_map
from .grid import GridDataset, RunConfig
from .samplers import SampleSet, run_pipeline


@dataclass(frozen=True)
class PdfHistogram:
    """Density-normalized histogram: integral over all bins is 1."""

    edges: np.ndarray  # B + 1 ascending bin edges
    densities: np.ndarray  # B nonnegative densities
    count: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def probabilities(self) -> np.ndarray:
        """Per-bin probability mass (density times width)."""
        mass = self.densities * self.widths
        return mass

    @property
    def occupied_fraction(self) -> float:
        return float(np.count_nonzero(self.densities) / self.densities.size)


@dataclass
class CoverageReport:
    """Per-variable coverage metrics."""

    per_variable: dict[str, dict[str, float]]


def histogram_pdf(
    values: np.ndarray, bins: int = 100, value_range: tuple[float, float] | None = None
) -> PdfHistogram:
    """Density-normalized histogram over an explicit or observed range."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    values = np.asarray(values, dtype=np.float64).ravel()
    if value_range is None:
        edges = entropy.bin_edges(values if values.size else np.array([0.0, 1.0]), bins)
    else:
        lo, hi = value_range
        if hi <= lo:
            raise ValueError(f"histogram range must have hi > lo, got ({lo}, {hi})")
        edges = np.linspace(lo, hi, bins + 1)
    if values.size == 0:
        return PdfHistogram(edges=edges, densities=np.zeros(bins), count=0)
    densities, _ = np.histogram(values, bins=edges, density=True)
    return PdfHistogram(edges=edges, densities=densities, count=values.size)


@dataclass(frozen=True)
class FullReference:
    """The full-data side of one variable's coverage scores, built once
    and shared by every sample scored against that variable."""

    histogram: PdfHistogram  # over the full data's min-max range
    tail_counts: np.ndarray  # per bin, the full-data points beyond the 1st/99th percentiles


def full_reference(full: np.ndarray, bins: int = 100) -> FullReference:
    """Histogram the full data and count its tail points per bin."""
    full = np.asarray(full, dtype=np.float64).ravel()
    h_full = histogram_pdf(full, bins)
    q01, q99 = np.percentile(full, [1.0, 99.0])
    tail_points = full[(full < q01) | (full > q99)]
    tail_bins = entropy.bin_index(h_full.edges, tail_points)
    return FullReference(histogram=h_full, tail_counts=np.bincount(tail_bins, minlength=bins))


def coverage_report(
    sample: SampleSet, full_values: dict[str, np.ndarray], bins: int = 100
) -> CoverageReport:
    """Quantify how well a sample covers each variable's full distribution.

    For each variable: KL(full || sample) over shared bins, the fraction
    of bins the sample occupies, the ratio of spanned value ranges, and
    the fraction of full-data tail points (beyond the 1st/99th
    percentiles) whose bin the sample occupies.
    """
    return score_sample(
        sample, {var: full_reference(full, bins) for var, full in full_values.items()}
    )


def score_sample(sample: SampleSet, references: dict[str, FullReference]) -> CoverageReport:
    """coverage_report's scores of a sample against prebuilt references."""
    if len(sample) == 0:
        raise ValueError("sample is empty")
    per_variable = {}
    for var, ref in references.items():
        if var not in sample.columns:
            raise ValueError(f"variable {var!r} missing from sample")
        sampled = sample.var_values(var)
        h_full = ref.histogram
        lo, hi = h_full.edges[[0, -1]].tolist()
        h_sample = histogram_pdf(sampled, h_full.densities.size, (lo, hi))
        tail_total = int(ref.tail_counts.sum())
        tail_capture = (
            float(ref.tail_counts[h_sample.densities > 0.0].sum() / tail_total)
            if tail_total else 1.0
        )
        per_variable[var] = {
            "kl_full_to_sample": entropy.kl_divergence(
                h_full.probabilities, h_sample.probabilities
            ),
            "occupied_bin_fraction": h_sample.occupied_fraction,
            "span_ratio": min(float(sampled.max() - sampled.min()) / (hi - lo), 1.0),
            "tail_capture": tail_capture,
        }
    return CoverageReport(per_variable=per_variable)


COMPARISON_COLUMNS = [
    "method", "seed", "variable", "kl_nats", "occupied_bin_fraction",
    "span_ratio", "tail_capture", "sampling_seconds", "points",
]


def _score_cell(config: RunConfig, dataset: GridDataset, seeds: list[int],
                references: dict[str, FullReference], cell: tuple[str, int]):
    """Comparison work unit: the scores of one (method, seed index) pipeline."""
    method, i = cell
    run_cfg = replace(config, method=method, seed=int(seeds[i]))
    t0 = time.perf_counter()
    sample = run_pipeline(run_cfg, dataset)
    elapsed = time.perf_counter() - t0
    report = score_sample(sample, references)
    # only scores and seeds[0]'s cluster values cross the pipe, no row table
    first = sample.var_values(config.cluster_var).copy() if i == 0 else None
    return report.per_variable, len(sample), elapsed, first


def compare_methods(
    config: RunConfig,
    dataset: GridDataset,
    methods: list[str],
    seeds: list[int],
    bins: int = 100,
) -> tuple[list[dict], FullReference, dict[str, np.ndarray]]:
    """Run every (method, seed) cell and tabulate coverage metrics.

    The cells share one pool of at most ``config.workers`` processes, and
    each cell's pipeline runs whole in one worker, so a cell's
    ``sampling_seconds`` is its wall time there; a lone cell runs in
    this process and keeps its pipeline's cube pool.

    Returns three things.  The rows: one per (method, seed, variable)
    plus per-method mean and standard-deviation summary rows (seed
    column "mean" / "std").  The full-data reference of the cluster
    variable.  And, per method, the cluster-variable values of its
    sample at ``seeds[0]``.
    """
    if not methods:
        raise ValueError("need at least one method")
    if not seeds:
        raise ValueError("need at least one seed")
    positions = dataset.positions(config.timesteps)
    # with every snapshot in use, ravel the fields in place instead of copying
    time_axis = slice(None) if positions == list(range(dataset.dims.nt)) else positions
    # every cell is scored against the same full data, so its side is built once
    references = {
        var: full_reference(dataset.fields[var][time_axis].ravel(), bins)
        for var in dataset.role_vars()
    }
    cells = [(method, i) for method in methods for i in range(len(seeds))]
    score_cell = partial(_score_cell, config, dataset, seeds, references)
    results = parallel_map(score_cell, cells, config.workers)
    rows: list[dict] = []
    first_samples: dict[str, np.ndarray] = {}
    by_cell = dict(zip(cells, results))
    for method in methods:
        cells_by_var: dict[str, list[dict]] = {}
        for i, seed in enumerate(seeds):
            per_variable, points, elapsed, first = by_cell[method, i]
            if first is not None:
                first_samples[method] = first
            for var, m in per_variable.items():
                row = {
                    "method": method, "seed": seed, "variable": var,
                    "kl_nats": m["kl_full_to_sample"],
                    **{c: m[c] for c in ("occupied_bin_fraction", "span_ratio", "tail_capture")},
                    "sampling_seconds": elapsed, "points": points,
                }
                rows.append(row)
                cells_by_var.setdefault(var, []).append(row)
        for var, var_rows in cells_by_var.items():
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                rows.append({
                    "method": method, "seed": stat, "variable": var,
                    **{c: float(fn([r[c] for r in var_rows])) for c in COMPARISON_COLUMNS[3:]},
                })
    return rows, references[config.cluster_var], first_samples


def comparison_to_csv(rows: list[dict], path) -> None:
    """Write a comparison table without its timing column, so the bytes
    repeat across runs."""
    columns = [c for c in COMPARISON_COLUMNS if c != "sampling_seconds"]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                v = row[col]
                cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


def histogram_comparison_csv(h_full: PdfHistogram, sample_values: np.ndarray, path) -> None:
    """Per-method histogram CSV: bin_lo, bin_hi, density_full, density_sample.

    The sample is binned on the full-data histogram's bins."""
    bins = h_full.densities.size
    lo, hi = h_full.edges[[0, -1]].tolist()
    h_sample = histogram_pdf(sample_values, bins, (lo, hi))
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,density_full,density_sample\n")
        for b in range(bins):
            fh.write(
                f"{h_full.edges[b]:.17g},{h_full.edges[b + 1]:.17g},"
                f"{h_full.densities[b]:.17g},{h_sample.densities[b]:.17g}\n"
            )


def cost_estimate(
    m: float, p: float, e: float, c_m: float, kappa: float = 1e-9
) -> dict[str, float]:
    """Training-cost proxy: sampling cost plus kappa * m * p * e.

    ``m`` is the sample count, ``p`` the model parameter count, ``e`` the
    epoch count, and ``c_m`` the measured sampling seconds.  Units are
    arbitrary "proxy units", never joules.
    """
    for name, v in (("m", m), ("p", p), ("e", e), ("c_m", c_m)):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")
    proxy = kappa * m * p * e
    return {
        "sampling_cost": float(c_m),
        "training_cost_proxy": float(proxy),
        "total": float(c_m + proxy),
    }
