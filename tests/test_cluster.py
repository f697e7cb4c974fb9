"""K-means against an exhaustive-assignment oracle on tiny inputs."""

import itertools

import numpy as np
import pytest

from geomix.cluster import KMeansInitError, kmeans

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])


def exhaustive_best(points, k):
    """Minimum inertia over every assignment of points to k clusters."""
    best = (np.inf, None)
    for labels in itertools.product(range(k), repeat=len(points)):
        labels = np.array(labels)
        if len(set(labels.tolist())) < k:
            continue
        cents = np.stack([points[labels == c].mean(axis=0) for c in range(k)])
        inertia = np.sum((points - cents[labels]) ** 2)
        if inertia < best[0]:
            best = (inertia, cents)
    return best


def test_four_point_oracle():
    result = kmeans(FOUR_POINTS, 2, seed=0)
    oracle_inertia, oracle_cents = exhaustive_best(FOUR_POINTS, 2)
    assert abs(result.inertia - oracle_inertia) < 1e-9
    got = sorted(map(tuple, result.centroids))
    want = sorted(map(tuple, oracle_cents))
    np.testing.assert_allclose(got, want, atol=1e-9)
    np.testing.assert_allclose(want, [(0.0, 0.05), (10.0, 10.05)], atol=1e-12)


def test_inertia_non_increasing():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.normal(loc=c, size=(40, 2)) for c in (0.0, 5.0, 9.0)])
    for seed in range(5):
        hist = kmeans(points, 3, seed=seed).inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))


def test_k_equals_distinct_points_gives_zero_inertia():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    result = kmeans(points, 3, seed=0)
    assert result.inertia < 1e-12


def test_determinism():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(60, 2))
    a = kmeans(points, 4, seed=7)
    b = kmeans(points, 4, seed=7)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)


def test_too_few_distinct_points():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(KMeansInitError):
        kmeans(points, 3)
    with pytest.raises(ValueError):
        kmeans(np.zeros((4, 3)), 2)


def test_k_below_one():
    for k in (0, -1):
        with pytest.raises(KMeansInitError):
            kmeans(FOUR_POINTS, k)


def test_assignments_are_nearest_centroid():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(80, 2)) * 3.0
    result = kmeans(points, 4, seed=3)
    d2 = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(result.assignments, np.argmin(d2, axis=1))
