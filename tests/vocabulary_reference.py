"""Frozen per-node vocabulary trainer the level-synchronous one must match.

``train_vocabulary_reference`` is the ``train_vocabulary`` that
``dehash.vocab`` shipped before it split every node of a level together:
one ``node_of == node`` pass, one k-means++ seeding and one Lloyd run per
node, each node seeded from its own ``default_rng([seed, level, node])``.
It calls the frozen row-major seeder and Lloyd iteration of
``nearest_center_reference``, which the production kernels equal bit for
bit, and is kept unchanged so the parity tests can require identical trees.
Do not edit it to follow the production code.
"""

import numpy as np

from nearest_center_reference import kmeans_pp_init_reference, lloyd_reference


def train_vocabulary_reference(descriptors, branch, levels, vlad_level, seed=0):
    """The ``(vlad_centers, leaf_centers)`` float32 arrays of the tree."""
    X = np.asarray(descriptors, dtype=np.float64)
    n, dim = X.shape
    node_of = np.zeros(n, dtype=np.int64)
    prev_centers = X.mean(axis=0)[None, :]
    level_centers = []
    for level in range(1, levels + 1):
        num_parents = branch ** (level - 1)
        centers_l = np.empty((branch**level, dim), dtype=np.float64)
        new_node_of = np.empty_like(node_of)
        for node in range(num_parents):
            mask = node_of == node
            base = node * branch
            if not mask.any():
                centers_l[base : base + branch] = prev_centers[node]
                continue
            pts = X[mask]
            rng = np.random.default_rng([seed, level, node])
            init = kmeans_pp_init_reference(pts, branch, rng)
            centers, assign = lloyd_reference(pts, init)
            centers_l[base : base + branch] = centers
            new_node_of[mask] = base + assign
        node_of = new_node_of
        prev_centers = centers_l
        level_centers.append(centers_l)
    return level_centers[vlad_level - 1].astype(np.float32), level_centers[levels - 1].astype(np.float32)
