import itertools

import numpy as np
import pytest

from mafn.cluster import (
    ClusterModel,
    assign_states,
    kmeans_fit,
    lloyd_iterations,
    relabel_canonical,
)
from mafn.errors import ContractError, DimensionError


def brute_force_inertia(points, k):
    """Minimum within-cluster sum of squares over every assignment."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def blobs(rng, centers, per_blob=20, sigma=0.02):
    pts = [c + sigma * rng.normal(size=(per_blob, len(c))) for c in centers]
    return np.concatenate(pts), np.repeat(np.arange(len(centers)), per_blob)


class TestFit:
    def test_two_points_exact(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = kmeans_fit(pts, 2, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(map(tuple, model.centroids)) == [(0.0, 0.0), (1.0, 1.0)]

    def test_six_setting_blobs(self, rng):
        centers = np.array(
            [[0, 0, 100], [20, 0.6, 60], [35, 0.84, 40], [10, 0.25, 80], [25, 0.7, 20], [42, 0.84, 0]],
            dtype=float,
        )
        pts, truth = blobs(rng, centers)
        model = relabel_canonical(kmeans_fit(pts, 6, seed=0), pts)
        labels = assign_states(pts, model)
        # every blob maps to exactly one cluster and no cluster is shared
        blob_labels = [set(labels[truth == j]) for j in range(6)]
        assert all(len(s) == 1 for s in blob_labels)
        assert len(set.union(*blob_labels)) == 6

    def test_matches_brute_force_1d(self, rng):
        pts = rng.normal(size=(8, 1))
        model = kmeans_fit(pts, 2, seed=0, restarts=10)
        assert model.inertia == pytest.approx(brute_force_inertia(pts, 2), abs=1e-9)

    def test_needs_distinct_points(self):
        pts = np.array([[1.0, 1.0]] * 5)
        with pytest.raises(ContractError):
            kmeans_fit(pts, 2, seed=0)

    def test_k1_is_global_mean(self, rng):
        pts = rng.normal(size=(25, 3))
        model = kmeans_fit(pts, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_objective_monotone(self, rng):
        pts = rng.normal(size=(40, 3))
        init = pts[rng.choice(40, size=4, replace=False)]
        _, _, _, history = lloyd_iterations(pts, init.copy(), max_iter=50, tol=0.0)
        diffs = np.diff(history)
        assert (diffs <= 1e-9).all()

    def test_empty_cluster_reseed(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        # both initial centroids sit in the left blob: the right blob starves one
        init = np.array([[0.0], [0.1]])
        centroids, labels, inertia, history = lloyd_iterations(pts, init.copy(), 50, 0.0)
        assert len(set(labels.tolist())) == 2
        assert inertia == pytest.approx(0.01, abs=1e-12)
        assert (np.diff(history) <= 1e-9).all()

    def test_scaling_property(self, rng):
        pts = rng.normal(size=(30, 2))
        m1 = kmeans_fit(pts, 3, seed=7)
        m2 = kmeans_fit(4.0 * pts, 3, seed=7)
        assert m2.inertia == pytest.approx(16.0 * m1.inertia, rel=1e-9)
        np.testing.assert_array_equal(assign_states(pts, m1), assign_states(4.0 * pts, m2))


class TestAssign:
    def test_exact_centroid(self, rng):
        centroids = rng.normal(size=(5, 3))
        model = ClusterModel(k=5, centroids=centroids, inertia=0.0, feature_spec="settings")
        np.testing.assert_array_equal(assign_states(centroids, model), np.arange(5))

    def test_tie_breaks_low(self):
        model = ClusterModel(
            k=2, centroids=np.array([[0.0], [1.0]]), inertia=0.0, feature_spec="settings"
        )
        assert assign_states(np.array([[0.5]]), model)[0] == 0

    def test_matches_linear_scan(self, rng):
        centroids = rng.normal(size=(5, 4))
        model = ClusterModel(k=5, centroids=centroids, inertia=0.0, feature_spec="settings")
        points = rng.normal(size=(20, 4))
        labels = assign_states(points, model)
        for p, label in zip(points, labels):
            dists = [np.sum((p - c) ** 2) for c in centroids]
            assert label == int(np.argmin(dists))

    def test_dimension_mismatch(self):
        model = ClusterModel(
            k=1, centroids=np.zeros((1, 3)), inertia=0.0, feature_spec="settings"
        )
        with pytest.raises(DimensionError):
            assign_states(np.zeros((1, 2)), model)


class TestRelabel:
    def test_count_ordering(self):
        pts = np.concatenate([np.full((10, 1), 0.0), np.full((30, 1), 5.0)])
        model = kmeans_fit(pts + np.arange(40)[:, None] * 1e-6, 2, seed=0)
        model = relabel_canonical(model, pts)
        labels = assign_states(pts, model)
        counts = np.bincount(labels)
        assert counts[0] == 30 and counts[1] == 10

    def test_lexicographic_tie(self):
        centroids = np.array([[1.0, 0.0], [0.0, 0.0]])
        model = ClusterModel(k=2, centroids=centroids, inertia=0.0, feature_spec="settings")
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])   # equal counts
        model = relabel_canonical(model, pts)
        np.testing.assert_array_equal(model.centroids[0], [0.0, 0.0])

    def test_assign_centroid_j_is_j(self, rng):
        pts = rng.normal(size=(50, 2))
        model = relabel_canonical(kmeans_fit(pts, 4, seed=1), pts)
        np.testing.assert_array_equal(assign_states(model.centroids, model), np.arange(4))

    def test_stable_labels_across_seeds(self, rng):
        centers = np.array(
            [[0, 0, 100], [20, 0.6, 60], [35, 0.84, 40], [10, 0.25, 80], [25, 0.7, 20], [42, 0.84, 0]],
            dtype=float,
        )
        pts, _ = blobs(rng, centers, per_blob=30)
        a = relabel_canonical(kmeans_fit(pts, 6, seed=1), pts)
        b = relabel_canonical(kmeans_fit(pts, 6, seed=99), pts)
        np.testing.assert_array_equal(assign_states(pts, a), assign_states(pts, b))
