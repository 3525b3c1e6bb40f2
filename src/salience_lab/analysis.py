"""Inspection of learned representations: projection, partitioning, profiling.

PCA supplies the 2-D view; the elbow rule picks the partition count from
full-batch Lloyd k-means fits and keeps the Lloyd partition at that count,
which is the one `cluster` writes; mini-batch k-means is kept for callers
with far more points; and partition profiles trace the unscaled behaviour
metrics per session index with normal-approximation confidence bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import (BEHAVIOUR_FIELDS, TARGETS, FeatureTable, ScalerStats, invert_scaler,
                       target_medians)


class AnalysisError(ValueError):
    """Degenerate analysis inputs (empty ranges, constant data, one label)."""


# ---------------------------------------------------------------------------
# Principal components


@dataclass
class ProjectionModel:
    mean: np.ndarray  # (d,)
    axes: np.ndarray  # (2, d), orthonormal rows
    eigenvalues: np.ndarray  # all of them, descending
    explained_variance_ratio: np.ndarray  # (2,)


def pca_fit(vectors: np.ndarray) -> ProjectionModel:
    """Top-2 principal axes via symmetric eigendecomposition of the covariance."""
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 3 or X.shape[1] < 2:
        raise AnalysisError(f"pca_fit needs >= 3 vectors of width >= 2, got {X.shape}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    if eigenvalues[0] <= 1e-12:
        raise AnalysisError("pca_fit on zero-variance data")
    axes = eigenvectors[:, :2].T.copy()
    # deterministic orientation: largest-magnitude component positive
    for row in axes:
        anchor = np.argmax(np.abs(row))
        if row[anchor] < 0:
            row *= -1.0
    total = float(eigenvalues.sum())
    return ProjectionModel(
        mean=mean,
        axes=axes,
        eigenvalues=eigenvalues,
        explained_variance_ratio=eigenvalues[:2] / total,
    )


def pca_transform(model: ProjectionModel, vectors: np.ndarray) -> np.ndarray:
    X = np.asarray(vectors, dtype=np.float64)
    return (X - model.mean) @ model.axes.T


def principal_scores(vectors: np.ndarray, component: int = 0) -> np.ndarray:
    """Scores along one principal axis (sign is an orientation convention)."""
    model = pca_fit(vectors)
    return pca_transform(model, vectors)[:, component]


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeansModel:
    k: int
    centroids: np.ndarray  # (k, d)

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        return _nearest(np.asarray(vectors, dtype=np.float64), self.centroids)

    def inertia(self, vectors: np.ndarray) -> float:
        X = np.asarray(vectors, dtype=np.float64)
        d2 = _sq_distances(X, self.centroids)
        return float(d2[np.arange(len(X)), np.argmin(d2, axis=1)].sum())


def _sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    return ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)


def _nearest(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_distances(X, C), axis=1)


def _kmeans_plusplus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = X[first]
    closest = ((X - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(np.searchsorted(np.cumsum(closest), rng.uniform(0.0, total)))
            idx = min(idx, n - 1)
        centroids[c] = X[idx]
        closest = np.minimum(closest, ((X - centroids[c]) ** 2).sum(axis=1))
    return centroids


def minibatch_kmeans(
    vectors: np.ndarray,
    k: int,
    batch_size: int = 64,
    iterations: int = 150,
    seed: int = 0,
) -> KMeansModel:
    """Mini-batch k-means with k-means++ seeding and per-centre step 1/count."""
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise AnalysisError(f"expected a 2-D matrix of vectors, got shape {X.shape}")
    n = X.shape[0]
    if k < 1 or k > n:
        raise AnalysisError(f"k must lie in 1..{n}, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    centroids = _kmeans_plusplus(X, k, rng)
    counts = np.zeros(k)
    batch_size = min(batch_size, n)
    for _ in range(iterations):
        take = rng.choice(n, size=batch_size, replace=False)
        batch = X[take]
        owner = _nearest(batch, centroids)
        for j in range(batch_size):
            c = owner[j]
            counts[c] += 1.0
            eta = 1.0 / counts[c]
            centroids[c] = (1.0 - eta) * centroids[c] + eta * batch[j]
    return KMeansModel(k=k, centroids=centroids)


def lloyd_kmeans(
    vectors: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 200,
    init_centroids: Optional[np.ndarray] = None,
) -> tuple[KMeansModel, list[float]]:
    """Full-batch Lloyd iterations; returns the model and its inertia history."""
    X = np.asarray(vectors, dtype=np.float64)
    n = X.shape[0]
    if k < 1 or k > n:
        raise AnalysisError(f"k must lie in 1..{n}, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, k, 7)))
    centroids = (
        init_centroids.copy() if init_centroids is not None else _kmeans_plusplus(X, k, rng)
    )
    history: list[float] = []
    prev = None
    for _ in range(max_iter):
        d2 = _sq_distances(X, centroids)
        owner = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), owner].sum()))
        new_centroids = centroids.copy()
        for c in range(k):
            members = X[owner == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                # park empty centroids on the worst-served point
                worst = int(np.argmax(d2[np.arange(n), owner]))
                new_centroids[c] = X[worst]
        if prev is not None and np.allclose(new_centroids, centroids, atol=1e-12):
            break
        prev = centroids
        centroids = new_centroids
    d2 = _sq_distances(X, centroids)
    history.append(float(d2[np.arange(n), np.argmin(d2, axis=1)].sum()))
    return KMeansModel(k=k, centroids=centroids), history


@dataclass
class ElbowReport:
    k_values: list[int]
    inertias: list[float]
    marginal_gains: list[float]
    chosen_k: int
    model: KMeansModel  # the Lloyd fit at chosen_k, whose inertia is listed


def elbow_select(vectors: np.ndarray, k_range: Sequence[int], seed: int = 0,
                 restarts: int = 3) -> ElbowReport:
    """Full-batch refits per k; stop where the marginal gain collapses.

    The chosen k is the smallest whose inertia reduction to the next k is at
    most 10% of the inertia at the first k of the range (the last k when none
    is); the report keeps the lowest-inertia fit at that k.  Warm-starting
    each k from the previous solution plus the worst-served point keeps the
    inertia curve non-increasing.
    """
    ks = list(k_range)
    if not ks:
        raise AnalysisError("elbow_select needs a non-empty k range")
    if any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
        raise AnalysisError(f"k range must be ascending and >= 1, got {ks}")
    X = np.asarray(vectors, dtype=np.float64)

    inertias = []
    best_models: list[KMeansModel] = []
    for k in ks:
        candidates = []
        for r in range(restarts):
            model, _ = lloyd_kmeans(X, k, seed=seed + 1000 * r)
            candidates.append((model.inertia(X), model))
        if best_models:
            prev = best_models[-1]
            d2 = _sq_distances(X, prev.centroids)
            worst = int(np.argmax(d2[np.arange(len(X)), np.argmin(d2, axis=1)]))
            grown = np.concatenate([prev.centroids, X[worst][None, :]], axis=0)
            if grown.shape[0] >= k:
                warm = grown[:k]
            else:
                extra = np.repeat(X[worst][None, :], k - grown.shape[0], axis=0)
                warm = np.concatenate([grown, extra], axis=0)
            model, _ = lloyd_kmeans(X, k, seed=seed, init_centroids=warm)
            candidates.append((model.inertia(X), model))
        inertia, model = min(candidates, key=lambda pair: pair[0])
        inertias.append(inertia)
        best_models.append(model)

    gains = [a - b for a, b in zip(inertias, inertias[1:])]
    chosen = len(ks) - 1
    for i, gain in enumerate(gains):
        if gain <= 0.1 * inertias[0]:
            chosen = i
            break
    return ElbowReport(k_values=ks, inertias=inertias, marginal_gains=gains,
                       chosen_k=ks[chosen], model=best_models[chosen])


# ---------------------------------------------------------------------------
# Silhouette


def silhouette(vectors: np.ndarray, labels: Sequence, sample_cap: int = 2000,
               seed: int = 0) -> float:
    """Mean silhouette coefficient over a seeded sample of at most sample_cap."""
    X = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        raise AnalysisError("silhouette needs at least two distinct labels")
    n = X.shape[0]
    if n > sample_cap:
        take = np.sort(np.random.default_rng(seed).choice(n, size=sample_cap, replace=False))
        X = X[take]
        labels = labels[take]
        if len(set(labels.tolist())) < 2:
            raise AnalysisError("silhouette sample collapsed to a single label")
        n = sample_cap
    dists = np.sqrt(np.maximum(_sq_distances(X, X), 0.0))
    values = np.zeros(n)
    unique = sorted(set(labels.tolist()))
    masks = {lab: labels == lab for lab in unique}
    for i in range(n):
        own = masks[labels[i]]
        own_size = int(own.sum())
        if own_size <= 1:
            values[i] = 0.0
            continue
        a = dists[i][own].sum() / (own_size - 1)
        b = math.inf
        for lab in unique:
            if lab == labels[i]:
                continue
            other = masks[lab]
            b = min(b, float(dists[i][other].mean()))
        denom = max(a, b)
        values[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(values.mean())


def random_orthogonal_projection(vectors: np.ndarray, dim: int, seed: int = 0) -> np.ndarray:
    """Project through a seeded random semi-orthogonal map (QR of a Gaussian)."""
    X = np.asarray(vectors, dtype=np.float64)
    d = X.shape[1]
    dim = min(dim, d)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, dim)))
    return X @ q


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks on ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise AnalysisError("spearman needs two equal-length 1-D samples")

    def ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        sv = v[order]
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and sv[j + 1] == sv[i]:
                j += 1
            r[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    if rx.std() == 0.0 or ry.std() == 0.0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


# ---------------------------------------------------------------------------
# Partition profiles


@dataclass
class PartitionProfile:
    """Per-cluster behavioural traces and target distributions."""

    clusters: dict[int, dict]

    def ranked_by_median_ss(self) -> list[int]:
        """Cluster ids ordered by ascending median remaining-session count."""
        return [k for _, k in sorted((v["targets"]["ss"]["q2"], k)
                                     for k, v in self.clusters.items())]


def profile_partitions(
    assignments: np.ndarray,
    traces: FeatureTable,
    scaler: ScalerStats,
    max_session_index: int = 20,
) -> PartitionProfile:
    """Mean +/- 95% CI of unscaled inputs per session index, per cluster.

    assignments[i] is trace i's cluster.  Each cluster's members are its
    traces, in table order.  Target distributions are quartiles over the
    members' target_medians; a member with no observed absence (nan) adds
    nothing to `ab`.
    """
    if len(assignments) != len(traces):
        raise AnalysisError(f"{len(assignments)} cluster assignments for {len(traces)} traces")
    lengths, medians = traces.lengths, target_medians(traces, scaler)
    clusters: dict[int, dict] = {}
    for cid in np.unique(assignments).tolist():
        members = np.flatnonzero(assignments == cid)
        first, length = traces.first_rows[members], lengths[members]
        t_max = min(max_session_index, int(length.max()))
        curves: dict[str, list] = {}
        for j, name in enumerate(BEHAVIOUR_FIELDS):
            rows = []
            for t in range(t_max):
                values = invert_scaler(scaler, name, traces.behaviour[first[length > t] + t, j])
                mean = float(values.mean())
                if values.size > 1:
                    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
                else:
                    half = None  # single member: reported as mean only
                rows.append(
                    {"session": t + 1, "mean": mean, "ci": half, "n": int(values.size)}
                )
            curves[name] = rows

        target_summaries = {}
        for name, values in zip(TARGETS, medians[members].T):
            values = values[~np.isnan(values)]
            if not values.size:
                target_summaries[name] = None
                continue
            q1, q2, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            target_summaries[name] = {"q1": float(q1), "q2": float(q2), "q3": float(q3)}

        clusters[cid] = {"count": len(members), "curves": curves, "targets": target_summaries}
    return PartitionProfile(clusters=clusters)
