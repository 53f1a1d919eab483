"""Information-theoretic kernel: KL divergence, pairwise adjacency graph,
node strengths, entropy-weighted selection, and proportional allocation.

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


def _smooth(p: np.ndarray, epsilon: float) -> np.ndarray:
    return (p + epsilon) / (1.0 + p.size * epsilon)


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> float:
    """Kullback-Leibler divergence D(p || q) in nats between two discrete
    distributions on a shared label space, after epsilon-smoothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ps = _smooth(p, epsilon)
    qs = _smooth(q, epsilon)
    # clamp: round-off on near-identical inputs can dip below zero
    return max(float(np.sum(ps * np.log(ps / qs))), 0.0)


def shannon_entropy(p: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> float:
    """Shannon entropy in nats of a smoothed discrete distribution."""
    ps = _smooth(np.asarray(p, dtype=np.float64), epsilon)
    return float(-np.sum(ps * np.log(ps)))


def adjacency_matrix(dists: list[np.ndarray], epsilon: float = DEFAULT_EPSILON) -> EntropyGraph:
    """Pairwise KL divergences A_ij = D(dists[i] || dists[j]), zero diagonal,
    with node strengths as row sums."""
    if len(dists) == 0:
        raise ValueError("need at least one distribution")
    length = np.asarray(dists[0]).size
    for i, d in enumerate(dists):
        if np.asarray(d).size != length:
            raise ValueError(f"distribution {i} has length {np.asarray(d).size}, expected {length}")
    n = len(dists)
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                A[i, j] = kl_divergence(dists[i], dists[j], epsilon)
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
