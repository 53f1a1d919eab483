"""Information-theoretic kernel: histogram bins, KL divergence, pairwise
KL graph, node strengths, entropy-weighted selection, proportional allocation.

All divergences use the natural logarithm (nats).  Zero bins are handled
by epsilon-smoothing with renormalization, (v + eps) / (1 + k*eps), so
empirical histograms with empty bins stay on a shared label space.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-10


@dataclass(frozen=True)
class EntropyGraph:
    """Pairwise KL adjacency matrix and per-node strengths (row sums)."""

    A: np.ndarray
    strengths: np.ndarray


def bin_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """bins + 1 equal-width edges over the min-max range of values;
    constant data spans [v, v + 1], so one bin holds all of it."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, bins + 1)


def bin_index(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's bin under np.histogram's rule: half-open bins, the last
    one closed.  Values outside the edges clip to the end bins."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, edges.size - 2)


def smooth(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Epsilon-smooth and renormalize each distribution along the last axis."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return (p + epsilon) / (1.0 + p.shape[-1] * epsilon)


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> float:
    """Kullback-Leibler divergence D(p || q) in nats between two discrete
    distributions on a shared label space, after epsilon-smoothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(kl_rows(smooth(p, epsilon), smooth(q, epsilon)))


def kl_rows(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """D(p || q) of smoothed distributions, summed along the last axis and
    clamped at zero: round-off on near-identical inputs can dip below it."""
    return np.maximum(np.sum(ps * np.log(ps / qs), axis=-1), 0.0)


def adjacency_matrix(dists: list[np.ndarray], epsilon: float = DEFAULT_EPSILON) -> EntropyGraph:
    """Pairwise KL divergences A_ij = D(dists[i] || dists[j]), zero diagonal,
    with node strengths as row sums.

    Each entry equals ``kl_divergence(dists[i], dists[j], epsilon)`` bit
    for bit: both sum along the contiguous last axis in ``kl_rows``.
    """
    if len(dists) == 0:
        raise ValueError("need at least one distribution")
    length = np.asarray(dists[0]).size
    for i, d in enumerate(dists):
        if np.asarray(d).size != length:
            raise ValueError(f"distribution {i} has length {np.asarray(d).size}, expected {length}")
    S = smooth(np.stack([np.asarray(d, dtype=np.float64) for d in dists]), epsilon)
    A = np.empty((len(dists), len(dists)))
    # one row at a time keeps the temporaries at n*L, not n*n*L
    for i, s in enumerate(S):
        A[i] = kl_rows(s, S)
    np.fill_diagonal(A, 0.0)
    return EntropyGraph(A=A, strengths=A.sum(axis=1))


def weighted_sample(
    weights: np.ndarray, n: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Draw n distinct indices with probability proportional to weight.

    Draws are sequential: each chosen index is removed and the remaining
    weights renormalized.  Indices are returned in draw order.  All-zero
    weights fall back to uniform with a warning.
    """
    w = np.asarray(weights, dtype=np.float64).copy()
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    N = w.size
    if n > N:
        raise ValueError(f"cannot draw {n} of {N} indices without replacement")
    if w.sum() == 0.0:
        warnings.warn("all weights zero; falling back to uniform sampling", stacklevel=2)
        w = np.ones(N)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    out = np.empty(n, dtype=np.int64)
    for draw in range(n):
        total = w.sum()
        if total == 0.0:
            # remaining weights exhausted before n draws; continue uniformly
            w = np.where(w >= 0.0, 1.0, 0.0)
            w[out[:draw]] = 0.0
            total = w.sum()
        out[draw] = rng.choice(N, p=w / total)
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
