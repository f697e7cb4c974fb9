"""Lloyd's K-means over 2-d coordinates with k-means++ seeding.

Distances are Euclidean in raw degree space, consistent with the Gaussian
models operating on degrees.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import row_blocks


class KMeansInitError(ValueError):
    pass


@dataclass
class KMeansResult:
    centroids: np.ndarray  # K x 2
    assignments: np.ndarray  # per-point cluster index
    inertia: float
    inertia_history: list


def _assign(points, centroids):
    """Nearest-centroid assignments, in ``row_blocks``; each cluster left
    empty, in index order, takes the point farthest from its nearest centroid."""
    assignments = np.empty(len(points), dtype=int)
    nearest = np.empty(len(points))
    for rows in row_blocks(len(points), len(centroids)):
        d2 = (points[rows, 0:1] - centroids[:, 0]) ** 2 + (points[rows, 1:2] - centroids[:, 1]) ** 2
        assignments[rows] = np.argmin(d2, axis=1)
        nearest[rows] = np.min(d2, axis=1)
    counts = np.bincount(assignments, minlength=len(centroids))
    for c in range(len(centroids)):
        if counts[c] == 0:
            far = np.argmax(nearest)
            counts[assignments[far]] -= 1
            counts[c] = 1
            assignments[far] = c
            nearest[far] = 0.0
    return assignments


def _centroids(points, assignments, k):
    """Per-cluster coordinate means; ``_assign`` leaves no cluster empty.

    ``np.bincount`` adds each cluster's points in index order, the order in
    which ``points[assignments == c].mean(axis=0)`` adds them.
    """
    counts = np.bincount(assignments, minlength=k)
    sums = [np.bincount(assignments, weights=points[:, j], minlength=k) for j in (0, 1)]
    return np.stack(sums, axis=1) / counts[:, None]


def _seed_pp(points, k, rng):
    n = len(points)
    centroids = np.empty((k, 2))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def kmeans(points, k, seed=0, max_iters=300, tol=1e-6):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an N x 2 array")
    if k < 1:
        raise KMeansInitError(f"k must be >= 1, got {k}")
    if len(np.unique(points, axis=0)) < k:
        raise KMeansInitError(f"need at least {k} distinct points, got {len(np.unique(points, axis=0))}")
    rng = np.random.default_rng(seed)
    centroids = _seed_pp(points, k, rng)
    history = []
    prev_inertia = np.inf
    assignments = np.zeros(len(points), dtype=int)
    for _ in range(max_iters):
        assignments = _assign(points, centroids)
        centroids = _centroids(points, assignments, k)
        inertia = float(np.sum((points - centroids[assignments]) ** 2))
        history.append(inertia)
        if prev_inertia - inertia < tol:
            break
        prev_inertia = inertia
    return KMeansResult(centroids=centroids, assignments=assignments,
                        inertia=history[-1], inertia_history=history)
