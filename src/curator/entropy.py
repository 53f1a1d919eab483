"""Information-theoretic kernel: histogram bins, KL divergence, pairwise
KL graph, node strengths, entropy-weighted selection, proportional allocation.
``node_strengths`` gives the graph's row sums in closed form, in O(nL)
time and memory, without the n x n matrix that ``adjacency_matrix``
builds; Phase 1 weights its cubes with it.
``bin_edges`` and ``bin_index`` are the pipeline's one histogram rule,
np.histogram's; the samplers and ``metrics`` bin with nothing else.

All divergences use the natural logarithm (nats).  Zero bins are handled
by smoothing with renormalization, (v + EPSILON) / (1 + k*EPSILON), so
empirical histograms with empty bins stay on a shared label space.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

EPSILON = 1e-10
# the narrowest bin bin_edges gives: no int64 count divided by it overflows
MIN_BIN_WIDTH = 2.0**63 / np.finfo(np.float64).max


@dataclass(frozen=True)
class EntropyGraph:
    """Pairwise KL adjacency matrix and per-node strengths (row sums)."""

    A: np.ndarray
    strengths: np.ndarray


def _linspace(lo: float, hi: float, bins: int) -> np.ndarray:
    """np.linspace(lo, hi, bins + 1) for finite lo < hi.  Where hi - lo
    overflows it runs on the halves, which halving and doubling keep
    exact at such magnitudes.  Its last step may overflow before it sets
    the last edge to hi, so that overflow is ignored."""
    scale = 1.0 if hi - lo < math.inf else 2.0
    with np.errstate(over="ignore"):
        return np.linspace(lo / scale, hi / scale, bins + 1) * scale


def bin_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """bins + 1 finite, equal-width edges spanning the finite values, each
    bin at least MIN_BIN_WIDTH wide (a width past the largest float counts
    as wide enough).

    The span is the min-max range [lo, hi].  Where that gives no such
    edges (constant data, or a range too narrow for the bins at its
    magnitude or in absolute terms), it is the first of [lo, lo + 1],
    [lo, lo + |lo|] and [lo - |lo|, hi] that covers hi and does: constant
    data fills one bin, and at |lo| >= 2^53, lo + 1 rounds back to lo."""
    lo, hi = float(values.min()), float(values.max())
    for a, b in ((lo, hi), (lo, lo + 1.0), (lo, lo + abs(lo)), (lo - abs(lo), hi)):
        if -math.inf < a < b < math.inf and hi <= b:
            edges = _linspace(a, b, bins)
            with np.errstate(over="ignore"):
                if np.all(np.diff(edges) >= MIN_BIN_WIDTH):
                    return edges
    raise ValueError(f"no {bins} bins of equal width span [{lo!r}, {hi!r}]")


def bin_index(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's bin under np.histogram's rule: half-open bins, the last
    one closed.  Values outside the edges clip to the end bins.

    As in np.histogram's uniform-bin path, each index is first computed
    arithmetically.  A value that does not lie in ``[edges[i], edges[i + 1])``
    of its computed bin i (rounding near an edge, a value outside the
    edges, or on the last edge) takes the ``searchsorted`` rule instead, so
    every index equals that rule's for sorted edges."""
    last = edges.size - 2
    # a range or value far outside the edges can overflow; fmax/fmin send
    # the NaN that follows to bin 0, where the edge check rejects it
    with np.errstate(all="ignore"):
        guess = (values - edges[0]) * ((last + 1) / (edges[-1] - edges[0]))
    np.floor(guess, out=guess)
    np.fmin(np.fmax(guess, 0, out=guess), last, out=guess)
    idx = guess.astype(np.intp)
    miss = (values < edges.take(idx)) | (values >= edges[1:].take(idx))
    idx[miss] = np.clip(np.searchsorted(edges, values[miss], side="right") - 1, 0, last)
    return idx


def smooth(p: np.ndarray) -> np.ndarray:
    """Smooth by EPSILON and renormalize each distribution along the last axis."""
    return (p + EPSILON) / (1.0 + p.shape[-1] * EPSILON)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence D(p || q) in nats between two discrete
    distributions on a shared label space, after smoothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(kl_rows(smooth(p), smooth(q)))


def kl_rows(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """D(p || q) of smoothed distributions, summed along the last axis and
    clamped at zero: round-off on near-identical inputs can dip below it."""
    return np.maximum(np.sum(ps * np.log(ps / qs), axis=-1), 0.0)


def adjacency_matrix(dists: list[np.ndarray]) -> EntropyGraph:
    """Pairwise KL divergences A_ij = D(dists[i] || dists[j]), zero diagonal,
    with node strengths as row sums.

    Each entry equals ``kl_divergence(dists[i], dists[j])`` bit for
    bit: both sum along the contiguous last axis in ``kl_rows``.
    """
    if len(dists) == 0:
        raise ValueError("need at least one distribution")
    length = np.asarray(dists[0]).size
    for i, d in enumerate(dists):
        if np.asarray(d).size != length:
            raise ValueError(f"distribution {i} has length {np.asarray(d).size}, expected {length}")
    S = smooth(np.stack([np.asarray(d, dtype=np.float64) for d in dists]))
    A = np.empty((len(dists), len(dists)))
    # one row at a time keeps the temporaries at n*L, not n*n*L
    for i, s in enumerate(S):
        A[i] = kl_rows(s, S)
    np.fill_diagonal(A, 0.0)
    return EntropyGraph(A=A, strengths=A.sum(axis=1))


def node_strengths(dists: np.ndarray) -> np.ndarray:
    """The row sums of ``adjacency_matrix(dists).A``, without the matrix.

    With S the smoothed rows, strength_i = sum_j sum_l S_il (log S_il -
    log S_jl) = n sum_l S_il log S_il - sum_l S_il sum_j log S_jl,
    clamped at zero.  It differs from the matrix row sums in the last
    bits only, except where every row equals the first: there the matrix
    is exactly zero, and so are these strengths.
    """
    S = smooth(np.asarray(dists, dtype=np.float64))
    if (S == S[0]).all():
        return np.zeros(S.shape[0])
    log_s = np.log(S)
    strengths = S.shape[0] * np.sum(S * log_s, axis=-1) - np.sum(S * log_s.sum(axis=0), axis=-1)
    return np.maximum(strengths, 0.0)


def weighted_sample(
    weights: np.ndarray, n: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Draw n distinct indices with probability proportional to weight.

    Draws are sequential: each chosen index is removed and the remaining
    weights renormalized.  Indices are returned in draw order.  Once no
    weight is left the draws go on uniformly; all-zero weights warn.
    """
    w = np.asarray(weights, dtype=np.float64).copy()
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    N = w.size
    if n > N:
        raise ValueError(f"cannot draw {n} of {N} indices without replacement")
    rng = np.random.default_rng(seed)

    out = np.empty(n, dtype=np.int64)
    for draw in range(n):
        total = w.sum()
        if total == 0.0:
            # no weight left, from the start or before n draws: go on uniformly
            if draw == 0:
                warnings.warn("all weights zero; falling back to uniform sampling", stacklevel=2)
            w = np.ones(N)
            w[out[:draw]] = 0.0
            total = w.sum()
        # rng.choice(N, p=w / total)'s draw and stream, inline
        cdf = np.cumsum(w / total)
        cdf /= cdf[-1]
        out[draw] = cdf.searchsorted(rng.random(), side="right")
        w[out[draw]] = 0.0
    return out


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    ideal = total * weights / weights.sum()
    base = np.floor(ideal).astype(np.int64)
    extras = total - int(base.sum())
    if extras > 0:
        frac = ideal - base
        frac[weights == 0.0] = -1.0  # zero-weight entries never receive extras
        order = np.argsort(-frac, kind="stable")
        base[order[:extras]] += 1
    return base


def allocate_counts(
    strengths: np.ndarray,
    n_total: int,
    capacities: np.ndarray | None = None,
) -> np.ndarray:
    """Split n_total into integer counts proportional to strengths.

    Uses largest-remainder rounding; zero-strength entries receive 0
    unless all strengths are zero, in which case the split is uniform.
    With a capacity vector, overflow is redistributed by remaining
    strength.
    """
    s = np.asarray(strengths, dtype=np.float64)
    k = s.size
    counts = np.zeros(k, dtype=np.int64)
    if n_total <= 0:
        return counts
    if np.any(s < 0.0):
        raise ValueError("strengths must be nonnegative")
    if s.sum() == 0.0:
        s = np.ones(k)
    caps = (
        np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
        if capacities is None
        else np.asarray(capacities, dtype=np.int64)
    )

    remaining = n_total
    while remaining > 0:
        avail = caps - counts
        w = np.where(avail > 0, s, 0.0)
        if w.sum() == 0.0:
            w = (avail > 0).astype(np.float64)
            if w.sum() == 0.0:
                break  # total capacity exhausted
        alloc = np.minimum(_largest_remainder(w, remaining), avail)
        counts += alloc
        remaining = n_total - int(counts.sum())
        if alloc.sum() == 0:
            break
    return counts
