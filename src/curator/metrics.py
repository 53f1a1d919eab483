"""Sampling-quality metrics, method comparison, and the training-cost proxy.

Coverage is judged against density-normalized histograms on the full
data's ``entropy.bin_edges``; a sample is binned on those same edges by
``entropy.bin_index``, so bin occupancy is comparable across methods.
The KL direction is D(full || sample): a sample is penalized for missing
regions where the full data has mass.  All divergences are in nats.  The
full-data side of a variable's scores, its histogram and its per-bin
tail counts, is a ``FullReference``: built once per variable and shared
by every sample scored against it.  Costs are wall-clock seconds plus a
proxy term; no hardware energy counters are involved, and reports label
units as "proxy units".
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import clustering, entropy
from .bench import parallel_map
from .grid import GridDataset, RunConfig, check_distinct, check_seed, flat_copy, role_vars
from .samplers import SampleSet, sample_units, select_cubes


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
        return self.densities * self.widths

    @property
    def occupied_fraction(self) -> float:
        return float(np.count_nonzero(self.densities) / self.densities.size)


@dataclass
class CoverageReport:
    """Per-variable coverage metrics, and the sample histograms they score."""

    per_variable: dict[str, dict[str, float]]
    histograms: dict[str, PdfHistogram]  # on the full data's bins


def _pdf(edges: np.ndarray, counts: np.ndarray) -> PdfHistogram:
    """np.histogram's ``density=True`` histogram of ``counts`` on ``edges``."""
    return PdfHistogram(edges=edges, densities=counts / np.diff(edges) / counts.sum(),
                        count=int(counts.sum()))


@dataclass(frozen=True)
class FullReference:
    """The full-data side of one variable's coverage scores, built once
    and shared by every sample scored against that variable."""

    histogram: PdfHistogram  # over the full data's min-max range
    tail_counts: np.ndarray  # per bin, the full-data points beyond the 1st/99th percentiles


def _percentile(x: np.ndarray, q: float) -> float:
    """``np.percentile(x.astype(np.float64), q)`` of sorted x, from the two
    order statistics around its linear-rule virtual index, with numpy's
    float64 arithmetic and its interpolation branch at t >= 0.5."""
    v = (x.size - 1) * (q / 100)
    if v >= x.size - 1:
        return float(x[-1])
    i = int(v)  # v >= 0, so this is its floor
    a, b, t = float(x[i]), float(x[i + 1]), v - i
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def full_reference(parts: list[np.ndarray], bins: int = 100) -> FullReference:
    """Histogram the full data, the values of every array in ``parts``,
    and count its tail points per bin.

    Everything comes from one sorted ``flat_copy`` of the parts in the
    data's own floating dtype, the only allocation the size of the data;
    it releases each part's mapped pages before it copies the next part.
    On ``entropy.bin_edges``' edges, the counts follow np.histogram's rule
    (half-open bins, the last closed) and the densities its ``density=True``
    arithmetic, so the histogram equals np.histogram's of the concatenated
    parts bit for bit.  The 1st and 99th percentiles equal np.percentile's
    of the float64 data, and the tail points beyond them are a prefix and
    a suffix of the sorted copy.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    parts = [np.asarray(p) for p in parts]
    # sorting in the data's own dtype gives the float64 widening's order
    x = flat_copy(parts)
    x.sort()
    n = x.size
    edges = entropy.bin_edges(x[[0, -1]], bins)  # x is sorted: its ends are its min and max
    with np.errstate(over="ignore"):  # a density needs a finite bin width
        if np.any(np.diff(edges) == np.inf):
            lo, hi = edges[[0, -1]].tolist()
            raise ValueError(f"a bin of [{lo!r}, {hi!r}] is wider than the largest float")
    bounds = np.concatenate([[0], clustering.search_sorted(x, edges[1:-1], "left"), [n]])
    counts = np.diff(bounds)
    # x[:lo] lies below the 1st percentile, and x[hi:] above the 99th
    lo = clustering.search_sorted(x, _percentile(x, 1.0), "left")
    hi = clustering.search_sorted(x, _percentile(x, 99.0), "right")
    # bin b holds x[bounds[b]:bounds[b + 1]], so it holds this many of x[:lo] and x[hi:]
    tail_counts = np.diff(np.minimum(bounds, lo)) + np.diff(np.maximum(bounds, hi))
    return FullReference(histogram=_pdf(edges, counts), tail_counts=tail_counts)


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
        sample, {var: full_reference([full], bins) for var, full in full_values.items()}
    )


def score_sample(sample: SampleSet, references: dict[str, FullReference]) -> CoverageReport:
    """coverage_report's scores of a sample against prebuilt references.  The
    sample, drawn from the full data, is binned on its reference's edges."""
    if len(sample) == 0:
        raise ValueError("sample is empty")
    per_variable, histograms = {}, {}
    for var, ref in references.items():
        if var not in sample.columns:
            raise ValueError(f"variable {var!r} missing from sample")
        sampled = sample.var_values(var)
        h_full = ref.histogram
        counts = np.bincount(entropy.bin_index(h_full.edges, sampled),
                             minlength=h_full.densities.size)
        h_sample = histograms[var] = _pdf(h_full.edges, counts)
        lo, hi = h_full.edges[[0, -1]].tolist()
        # halves keep a span past the largest float exact, as in entropy._linspace
        scale = 2.0 if np.isinf(hi - lo) else 1.0
        span = float(sampled.max()) / scale - float(sampled.min()) / scale
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
            "span_ratio": min(span / (hi / scale - lo / scale), 1.0),
            "tail_capture": tail_capture,
        }
    return CoverageReport(per_variable=per_variable, histograms=histograms)


COMPARISON_COLUMNS = [
    "method", "seed", "variable", "kl_nats", "occupied_bin_fraction",
    "span_ratio", "tail_capture", "sampling_seconds", "points",
]


def _score_cell(config: RunConfig, dataset: GridDataset, references: dict[str, FullReference],
                cell: tuple[str, int, list[tuple[int, np.ndarray]], float]):
    """Comparison work unit: a cell is a method, a seed, that seed's
    ``select_cubes`` and its seconds.  It samples with ``sample_units``, as
    ``sample_cubes`` does, and scores a sample of the role columns alone: the
    scores read nothing else, so no coordinate table is built.  Returns the
    sample's rows, one per variable, and its cluster-variable histogram; no
    sample values cross the pipe."""
    method, seed, selection, phase1_seconds = cell
    _, results, phase2_seconds = sample_units(replace(config, method=method, seed=int(seed)),
                                              dataset, selection)
    sample = SampleSet(columns=role_vars(dataset),
                       data=np.concatenate([values for _, values, _ in results]))
    elapsed = phase1_seconds + phase2_seconds
    report = score_sample(sample, references)
    rows = [
        {
            "method": method, "seed": seed, "variable": var,
            "kl_nats": m["kl_full_to_sample"],
            **{c: m[c] for c in ("occupied_bin_fraction", "span_ratio", "tail_capture")},
            "sampling_seconds": elapsed, "points": len(sample),
        }
        for var, m in report.per_variable.items()
    ]
    return rows, report.histograms[config.cluster_var]


def compare_methods(
    config: RunConfig, dataset: GridDataset, methods: list[str], seeds: list[int]
) -> tuple[list[dict], PdfHistogram, dict[str, PdfHistogram]]:
    """Run every (method, seed) cell and tabulate coverage metrics.

    A repeated method or seed, or a seed the config's seed rule rejects,
    is a ConfigError raised before any work; rows carry each seed as a
    config settles it.  Phase 1 runs here, once per seed.  The cells
    share one pool of at most ``config.workers`` processes, and each
    samples its seed's cubes in one worker; a lone cell runs in this
    process and keeps the cube pool.  A cell scores its points' role
    values and builds no ``t,i,j,k,x,y,z`` table.  A cell's
    ``sampling_seconds`` adds its seed's Phase 1 time to its own.

    Returns three things.  The rows: one per (method, seed, variable)
    plus per-method mean and standard-deviation summary rows (seed
    column "mean" / "std").  The full-data histogram of the cluster
    variable.  And, per method, the histogram of its sample at
    ``seeds[0]`` on the same bins.
    """
    if not methods:
        raise ValueError("need at least one method")
    if not seeds:
        raise ValueError("need at least one seed")
    check_distinct("methods", methods)
    for seed in seeds:
        check_seed("seeds", seed)
    seeded = [replace(config, seed=seed) for seed in seeds]
    seeds = [c.seed for c in seeded]  # settled: 'unseeded' becomes the seed it drew
    check_distinct("seeds", seeds)
    # its histograms are cluster_var's
    config.check_run(dataset.dims, methods, role_vars(dataset), cluster=True)
    positions = dataset.positions(config.timesteps)
    # every cell is scored against the same full data, so its side is built
    # once, from one copy of the snapshots in use
    references = {
        var: full_reference([dataset.fields[var, p] for p in positions])
        for var in role_vars(dataset)
    }
    selections = []
    for seed, seed_config in zip(seeds, seeded):
        t0 = time.perf_counter()
        selections.append((seed, select_cubes(seed_config, dataset), time.perf_counter() - t0))
    cells = [(method, *selected) for method in methods for selected in selections]
    score_cell = partial(_score_cell, config, dataset, references)
    by_cell = dict(zip([c[:2] for c in cells], parallel_map(score_cell, cells, config.workers)))
    rows: list[dict] = []
    for method in methods:
        cell_rows = [row for seed in seeds for row in by_cell[method, seed][0]]
        rows += cell_rows
        for var in references:
            var_rows = [r for r in cell_rows if r["variable"] == var]
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                rows.append({
                    "method": method, "seed": stat, "variable": var,
                    **{c: float(fn([r[c] for r in var_rows])) for c in COMPARISON_COLUMNS[3:]},
                })
    histograms = {method: by_cell[method, seeds[0]][1] for method in methods}
    return rows, references[config.cluster_var].histogram, histograms


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


def histogram_comparison_csv(h_full: PdfHistogram, h_sample: PdfHistogram, path) -> None:
    """Per-method histogram CSV: bin_lo, bin_hi, density_full, density_sample.

    The sample histogram is on the full-data histogram's bins."""
    from .csvtext import format_block  # as SampleSet.to_csv imports it

    table = np.column_stack([h_full.edges[:-1], h_full.edges[1:], h_full.densities,
                             h_sample.densities])
    with open(path, "wb") as fh:
        fh.write(b"bin_lo,bin_hi,density_full,density_sample\n")
        fh.write(format_block(table, 0))


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
