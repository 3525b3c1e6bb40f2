from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import feature_table
from salience_lab.analysis import (
    AnalysisError,
    elbow_select,
    lloyd_kmeans,
    minibatch_kmeans,
    pca_fit,
    pca_transform,
    principal_scores,
    profile_partitions,
    random_orthogonal_projection,
    silhouette,
    spearman,
)


def _blobs(rng, centers, n_per, scale=1.0):
    points = []
    labels = []
    for i, c in enumerate(centers):
        points.append(rng.normal(size=(n_per, len(c))) * scale + np.asarray(c))
        labels.extend([i] * n_per)
    return np.concatenate(points, axis=0), np.asarray(labels)


# -- PCA ------------------------------------------------------------------------


def test_pca_line_data_has_full_first_axis():
    rng = np.random.default_rng(0)
    t = rng.normal(size=200)
    direction = np.array([3.0, 4.0]) / 5.0
    X = t[:, None] * direction[None, :] + np.array([1.0, -2.0])
    model = pca_fit(X)
    assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(float(model.axes[0] @ direction)) == pytest.approx(1.0, abs=1e-9)


def test_pca_axes_orthonormal():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 6))
    model = pca_fit(X)
    gram = model.axes @ model.axes.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_pca_isotropic_eigenvalues_close():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10_000, 2))
    model = pca_fit(X)
    ratio = model.eigenvalues[0] / model.eigenvalues[1]
    assert ratio < 1.05


def test_pca_total_variance_equals_eigenvalue_sum():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8))
    model = pca_fit(X)
    total_var = np.var(X, axis=0, ddof=1).sum()
    assert total_var == pytest.approx(float(model.eigenvalues.sum()), abs=1e-8)


def test_pca_transform_shape_and_centering():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 4))
    model = pca_fit(X)
    Y = pca_transform(model, X)
    assert Y.shape == (50, 2)
    assert np.allclose(Y.mean(axis=0), 0.0, atol=1e-10)


def test_pca_rejects_degenerate():
    with pytest.raises(AnalysisError):
        pca_fit(np.zeros((10, 3)))
    with pytest.raises(AnalysisError):
        pca_fit(np.ones((2, 5)))


def test_pca_deterministic_orientation():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3)) * np.array([5.0, 1.0, 0.2])
    a = pca_fit(X).axes
    b = pca_fit(X.copy()).axes
    assert np.array_equal(a, b)


# -- k-means ----------------------------------------------------------------------


def test_kmeans_single_point():
    X = np.array([[2.0, 3.0]])
    model = minibatch_kmeans(X, k=1, batch_size=4, iterations=10, seed=0)
    assert np.allclose(model.centroids[0], [2.0, 3.0])


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(6)
    sigma = 0.5
    X, _ = _blobs(rng, [(0.0, 0.0), (10.0, 10.0)], 200, scale=sigma)
    model = minibatch_kmeans(X, k=2, batch_size=64, iterations=200, seed=1)
    found = model.centroids[np.argsort(model.centroids[:, 0])]
    assert np.linalg.norm(found[0] - np.array([0.0, 0.0])) < 0.5 * sigma
    assert np.linalg.norm(found[1] - np.array([10.0, 10.0])) < 0.5 * sigma


def test_kmeans_assignment_is_nearest_centroid():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 3))
    model = minibatch_kmeans(X, k=4, batch_size=32, iterations=80, seed=2)
    labels = model.assign(X)
    brute = np.array(
        [int(np.argmin(((x - model.centroids) ** 2).sum(axis=1))) for x in X]
    )
    assert np.array_equal(labels, brute)


def test_kmeans_rejects_k_over_n():
    with pytest.raises(AnalysisError):
        minibatch_kmeans(np.zeros((3, 2)), k=4)


def test_kmeans_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 4))
    a = minibatch_kmeans(X, 3, seed=9)
    b = minibatch_kmeans(X, 3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)


def test_minibatch_close_to_lloyd_on_blobs():
    rng = np.random.default_rng(10)
    X, _ = _blobs(rng, [(0, 0), (8, 0), (0, 8), (8, 8)], 150, scale=0.6)
    mb = minibatch_kmeans(X, 4, batch_size=64, iterations=300, seed=3)
    lloyd, _ = lloyd_kmeans(X, 4, seed=3)
    assert mb.inertia(X) <= 1.1 * lloyd.inertia(X)


def test_lloyd_inertia_non_increasing():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 3))
    _, history = lloyd_kmeans(X, 5, seed=4)
    assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


# -- elbow ------------------------------------------------------------------------


def test_elbow_four_planted_blobs():
    rng = np.random.default_rng(12)
    X, _ = _blobs(rng, [(0, 0), (12, 0), (0, 12), (12, 12)], 120, scale=0.8)
    report = elbow_select(X, range(1, 9), seed=5)
    assert report.chosen_k in (3, 4, 5)
    assert all(a >= b - 1e-9 for a, b in zip(report.inertias, report.inertias[1:]))


def test_elbow_can_choose_the_lowest_k():
    # Splitting a tight 8-D blob gains little against the two-blob inertia, so k = 2
    # is chosen; a rule relative to the first gain would run on to k = 5.
    rng = np.random.default_rng(15)
    X, _ = _blobs(rng, [(0.0,) * 8, (10.0,) * 8], 60, scale=0.5)
    report = elbow_select(X, range(2, 6), seed=0)
    assert report.marginal_gains[0] <= 0.1 * report.inertias[0]
    assert report.chosen_k == 2


def test_elbow_single_k():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 2))
    report = elbow_select(X, [1], seed=0)
    assert report.chosen_k == 1
    assert report.marginal_gains == []


def test_elbow_k_equals_n_zero_inertia():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(12, 2))
    report = elbow_select(X, [1, 6, 12], seed=1)
    assert report.inertias[-1] == pytest.approx(0.0, abs=1e-18)


def test_elbow_rejects_bad_range():
    with pytest.raises(AnalysisError):
        elbow_select(np.zeros((5, 2)), [])
    with pytest.raises(AnalysisError):
        elbow_select(np.zeros((5, 2)), [3, 2])


# -- silhouette ----------------------------------------------------------------------


def test_silhouette_separated_blobs_high():
    rng = np.random.default_rng(15)
    X, labels = _blobs(rng, [(0, 0), (50, 50)], 100, scale=1.0)
    assert silhouette(X, labels) > 0.9


def test_silhouette_random_labels_near_zero():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(400, 3))
    labels = rng.integers(0, 2, size=400)
    assert abs(silhouette(X, labels)) < 0.1


def test_silhouette_identical_points_zero():
    X = np.zeros((10, 2))
    labels = np.array([0] * 5 + [1] * 5)
    assert silhouette(X, labels) == 0.0


def test_silhouette_single_label_errors():
    with pytest.raises(AnalysisError):
        silhouette(np.zeros((4, 2)), [1, 1, 1, 1])


def test_silhouette_sampling_cap_deterministic():
    rng = np.random.default_rng(17)
    X, labels = _blobs(rng, [(0, 0), (6, 6)], 300, scale=1.0)
    a = silhouette(X, labels, sample_cap=100, seed=3)
    b = silhouette(X, labels, sample_cap=100, seed=3)
    assert a == b


# -- helpers ---------------------------------------------------------------------------


def test_random_projection_is_orthonormal():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(50, 8))
    Y = random_orthogonal_projection(X, 3, seed=0)
    assert Y.shape == (50, 3)
    # distances contract but orthonormal columns preserve inner-product structure
    q = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 3)))[0]
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_spearman_monotone_and_ties():
    x = [1.0, 2.0, 3.0, 4.0]
    assert spearman(x, [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman(x, [40, 30, 20, 10]) == pytest.approx(-1.0)
    assert spearman([1.0, 1.0, 2.0], [5.0, 5.0, 9.0]) == pytest.approx(1.0)


# -- partition profiles -------------------------------------------------------------------


def test_profile_partitions_counts_and_contrast():
    from salience_lab.features import build_dataset
    from salience_lab.telemetry import GameSpec, simulate_population

    games = [
        GameSpec("alpha", base_quality=0.85, quality_drift=-0.004, completion_sessions=25),
        GameSpec("gamma", base_quality=0.35, quality_drift=-0.003, noise_sd=0.12),
    ]
    traces = simulate_population(games, players_per_game=20, calendar_start=0,
                                 horizon_days=21, seed=21)
    split = build_dataset(traces, ratio=0.8, seed=21)
    everyone = split.train + split.test
    # assign by trace length: a crude but honest engagement partition
    assignments = {t.user_id: (1 if t.length >= 15 else 0) for t in everyone}
    profile = profile_partitions(assignments, everyone, split.scaler)
    assert sum(c["count"] for c in profile.clusters.values()) == len(everyone)
    ranked = profile.ranked_by_median_ss()
    assert ranked[0] == 0 and ranked[-1] == 1  # longer traces -> higher median ss


def test_profile_single_member_cluster_mean_only():
    from salience_lab.features import build_dataset
    from salience_lab.telemetry import GameSpec, simulate_population

    games = [GameSpec("alpha", base_quality=0.8, completion_sessions=10)]
    traces = simulate_population(games, players_per_game=5, calendar_start=0,
                                 horizon_days=10, seed=3)
    split = build_dataset(traces, ratio=0.8, seed=3)
    everyone = split.train + split.test
    assignments = {t.user_id: (0 if i else 1) for i, t in enumerate(everyone)}
    profile = profile_partitions(assignments, everyone, split.scaler)
    lone = profile.clusters[1]
    assert lone["count"] == 1
    first_row = lone["curves"]["session_time"][0]
    assert first_row["ci"] is None and first_row["mean"] is not None


def test_profile_unknown_user_errors():
    with pytest.raises(AnalysisError):
        profile_partitions({"ghost": 0}, feature_table([]), None)


def _reference_profile(assignments, traces, scaler, max_session_index=20):
    """profile_partitions one member trace at a time, through a by-user dict."""
    from salience_lab.features import BEHAVIOUR_FIELDS, TARGETS, invert_scaler, target_medians

    by_user = {t.user_id: t.index for t in traces}
    clusters = {}
    for cid in sorted(set(assignments.values())):
        picked = sorted((by_user[u] for u, c in assignments.items() if c == cid),
                        key=lambda i: traces[i].user_id)
        members = [traces[i] for i in picked]
        t_max = min(max_session_index, max(m.length for m in members))
        unscaled = [np.stack([invert_scaler(scaler, name, m.behaviour[:t_max, j])
                              for j, name in enumerate(BEHAVIOUR_FIELDS)], axis=1)
                    for m in members]
        curves = {}
        for j, name in enumerate(BEHAVIOUR_FIELDS):
            curves[name] = []
            for t in range(t_max):
                values = np.asarray([u[t, j] for u in unscaled if len(u) > t])
                half = (1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
                        if values.size > 1 else None)
                curves[name].append({"session": t + 1, "mean": float(values.mean()),
                                     "ci": half, "n": int(values.size)})
        targets = {}
        for name, medians in zip(TARGETS, target_medians(traces.take(picked), scaler).T):
            values = medians[~np.isnan(medians)]
            targets[name] = None if not values.size else dict(zip(
                ("q1", "q2", "q3"), np.quantile(values, [0.25, 0.5, 0.75]).tolist()))
        clusters[cid] = {"count": len(members), "curves": curves, "targets": targets}
    return clusters


def test_profile_partitions_equal_the_per_member_reference():
    from salience_lab.features import build_dataset
    from salience_lab.telemetry import GameSpec, simulate_population

    games = [GameSpec("alpha", base_quality=0.7, completion_sessions=12),
             GameSpec("beta", base_quality=0.4, noise_sd=0.2)]
    traces = simulate_population(games, players_per_game=15, calendar_start=0,
                                 horizon_days=12, seed=4)
    split = build_dataset(traces, ratio=0.6, seed=4)
    # every third trace left out; clusters by game and length
    assignments = {t.user_id: t.game_idx * 10 + min(t.length // 6, 2)
                   for t in split.traces if t.index % 3}
    assert len(set(assignments.values())) >= 4
    for limit in (3, 20):
        ours = profile_partitions(assignments, split.traces, split.scaler, limit).clusters
        assert ours == _reference_profile(assignments, split.traces, split.scaler, limit)
