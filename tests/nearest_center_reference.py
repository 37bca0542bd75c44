"""Frozen chunked difference-scan quantizer: the reference the GEMM kernel must match.

``nearest_center_reference`` is the ``nearest_center`` that ``dehash.vocab``
shipped before it scored centers with one matrix product, and
``lloyd_reference`` the Lloyd iteration built on it, summing clusters with
``np.add.at``.  Both are kept unchanged so the parity tests can require
identical assignments (ties and non-finite rows included) and identical
trained centers.  Do not edit them to follow the production code.
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
