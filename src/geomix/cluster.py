"""Lloyd's K-means over 2-d coordinates with k-means++ seeding.

Distances are Euclidean in raw degree space, consistent with the Gaussian
models operating on degrees.
"""

from dataclasses import dataclass

import numpy as np


class KMeansInitError(ValueError):
    pass


@dataclass
class KMeansResult:
    centroids: np.ndarray  # K x 2
    assignments: np.ndarray  # per-point cluster index
    inertia: float
    inertia_history: list


def _pairwise_sq(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


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
        d2 = _pairwise_sq(points, centroids)
        assignments = np.argmin(d2, axis=1)
        # repair empty clusters with the globally farthest point
        for c in range(k):
            if not np.any(assignments == c):
                far = np.argmax(np.min(d2, axis=1))
                assignments[far] = c
                d2[far] = 0.0
        for c in range(k):
            centroids[c] = points[assignments == c].mean(axis=0)
        inertia = float(np.sum((points - centroids[assignments]) ** 2))
        history.append(inertia)
        if prev_inertia - inertia < tol:
            break
        prev_inertia = inertia
    return KMeansResult(centroids=centroids, assignments=assignments,
                        inertia=history[-1], inertia_history=history)
