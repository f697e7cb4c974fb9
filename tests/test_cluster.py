"""K-means against an exhaustive-assignment oracle on tiny inputs, and
against the N x K x 2 reference loop it replaced."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomix import kernels
from geomix.cluster import KMeansInitError, _assign, _seed_pp, kmeans

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


def reference_assign(points, centroids):
    """The earlier assignment step: an N x K x 2 difference tensor, then K
    ``np.any`` scans for empty clusters.  Returns (assignments, repairs)."""
    diff = points[:, None, :] - centroids[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    assignments = np.argmin(d2, axis=1)
    repairs = 0
    for c in range(len(centroids)):
        if not np.any(assignments == c):
            far = np.argmax(np.min(d2, axis=1))
            assignments[far] = c
            d2[far] = 0.0
            repairs += 1
    return assignments, repairs


def reference_kmeans(points, k, seed=0, max_iters=300, tol=1e-6):
    rng = np.random.default_rng(seed)
    centroids = _seed_pp(points, k, rng)
    history = []
    prev_inertia = np.inf
    for _ in range(max_iters):
        assignments, _ = reference_assign(points, centroids)
        for c in range(k):
            centroids[c] = points[assignments == c].mean(axis=0)
        inertia = float(np.sum((points - centroids[assignments]) ** 2))
        history.append(inertia)
        if prev_inertia - inertia < tol:
            break
        prev_inertia = inertia
    return centroids, assignments, history


# a coarse grid, so drawn points repeat often
GRID_POINT = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def points_with_duplicates(draw):
    base = draw(st.lists(GRID_POINT, min_size=1, max_size=25))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(base), max_size=len(base)))
    points = np.repeat(np.array(base, dtype=float) * 0.75, repeats, axis=0)
    return points[draw(st.permutations(range(len(points))))]


@settings(max_examples=150, deadline=None)
@given(points_with_duplicates(), st.data())
def test_kmeans_matches_reference_loop(points, data):
    k = data.draw(st.integers(1, len(np.unique(points, axis=0))))
    seed = data.draw(st.integers(0, 2 ** 16))
    got = kmeans(points, k, seed=seed)
    centroids, assignments, history = reference_kmeans(points, k, seed=seed)
    np.testing.assert_array_equal(got.centroids, centroids)
    np.testing.assert_array_equal(got.assignments, assignments)
    assert got.inertia_history == history


@settings(max_examples=300, deadline=None)
@given(points_with_duplicates(), st.lists(GRID_POINT, min_size=1, max_size=8), st.data())
def test_assign_repairs_empty_clusters_like_reference(points, grid_centroids, data):
    # a centroid repeated at a later index is never the first argmin, so its
    # cluster starts empty and the repair branch must run
    grid_centroids.insert(data.draw(st.integers(1, len(grid_centroids))), grid_centroids[0])
    centroids = np.array(grid_centroids, dtype=float) * 0.75
    want, repairs = reference_assign(points, centroids)
    assert repairs >= 1
    # blocks from one point at a time up to all points at once
    with mock.patch.object(kernels, "ROW_BLOCK_ELEMS", data.draw(st.integers(1, 1000))):
        np.testing.assert_array_equal(_assign(points, centroids), want)


def test_assign_repair_that_empties_a_later_cluster():
    # cluster 1 starts empty and takes the point at x=6, the only member of
    # cluster 2, so cluster 2 must then be repaired as well
    points = np.array([[0.0, 0.0], [6.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    want, repairs = reference_assign(points, centroids)
    assert repairs == 2
    np.testing.assert_array_equal(_assign(points, centroids), want)
