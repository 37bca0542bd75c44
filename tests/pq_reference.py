"""Frozen product-quantizer trainer the production one must match.

``train_pq_reference`` is the ``train_pq`` that ``dehash.retrieval`` shipped
before its codebooks came from the shared grouped k-means of
``dehash.vocab``: one k-means++ seeding and one Lloyd run per sub-vector,
each seeded from its own ``default_rng([seed, j])``, and with fewer rows
than centers every row a center and the rest drawn from that generator.
It calls the frozen row-major seeder and Lloyd iteration of
``nearest_center_reference`` and is kept unchanged so the parity tests can
require identical codebooks.  Do not edit it to follow the production code.
"""

import numpy as np

from nearest_center_reference import kmeans_pp_init_reference, lloyd_reference


def train_pq_reference(vectors, subvectors, bits, seed=0):
    """The ``(subvectors, 2**bits, dim // subvectors)`` float64 codebooks."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n, total = vectors.shape
    k = 2**bits
    width = total // subvectors
    books = np.empty((subvectors, k, width), dtype=np.float64)
    for j in range(subvectors):
        sub = vectors[:, j * width : (j + 1) * width]
        rng = np.random.default_rng([seed, j])
        if n >= k:
            init = kmeans_pp_init_reference(sub, k, rng)
            centers, _ = lloyd_reference(sub, init)
        else:
            centers = sub[rng.integers(0, n, size=k)]
            centers[:n] = sub
        books[j] = centers
    return books
