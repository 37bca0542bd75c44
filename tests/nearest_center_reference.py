"""Frozen quantizer and seeder references the production kernels must match.

``nearest_center_reference`` is the ``nearest_center`` that ``dehash.vocab``
shipped before it scored centers with one matrix product, and
``lloyd_reference`` the Lloyd iteration built on it, summing clusters with
``np.add.at``.  ``kmeans_pp_init_reference`` is the row-major k-means++
seeder (``np.sum`` per seed, ``rng.choice`` per draw) shipped before the
column-major one.  All are kept unchanged so the parity tests can require
identical assignments (ties and non-finite rows included), identical seeds
and identical trained centers.  Do not edit them to follow the production
code.
"""

import numpy as np


def nearest_center_reference(points: np.ndarray, centers: np.ndarray, chunk_size: int = 1024) -> np.ndarray:
    """Index of the closest center per point (squared L2, lowest index on ties).

    Brute-force chunked scan; exact and deterministic, which the quantizer
    contract requires.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n = points.shape[0]
    idx = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk_size):
        block = points[start : start + chunk_size]
        diff = block[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        idx[start : start + chunk_size] = np.argmin(d2, axis=1)
    return idx


def lloyd_reference(points, centers, max_iter=50, tol=1e-6):
    """Lloyd's iteration from the given initial centers; returns (centers, assignments)."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.array(centers, dtype=np.float64)
    k = centers.shape[0]
    for _ in range(max_iter):
        assign = nearest_center_reference(points, centers)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, points)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            big = int(np.argmax(counts))
            members = np.flatnonzero(assign == big)
            far = np.argsort(
                -np.sum((points[members] - new_centers[big]) ** 2, axis=1), kind="stable"
            )
            for rank, j in enumerate(empties):
                new_centers[j] = points[members[far[rank % members.size]]]
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        if shift < tol:
            break
    return centers, nearest_center_reference(points, centers)


def kmeans_pp_init_reference(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed k centers with D^2-weighted sampling from the data points."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining points coincide with chosen centers.
            pick = int(rng.integers(n))
        centers[j] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers
