"""Frozen scans: the references the column-major VLAD and ADC scans, the
posting-list BoW scan and the vectorized GPS scan must match.

``vlad_distances`` is the row-major L2 scan and ``bow_scores`` the
dense-gather CSR sum-of-min scan that ``dehash.retrieval`` shipped before the
ranking-normalized VLADs were stored column-major and ``BowMatrix`` kept
posting lists; ``adc_scores`` is the row-major look-up-table scan it shipped
before the PQ codes were stored column-major with their offsets;
``haversine_scan`` restates ``pair_reference.haversine_m`` over a whole
``(lat, lon)`` matrix, the formula ``rank_gps`` vectorizes.  All are
kept unchanged so the tests can require identical score floats.  Do not
edit them to follow the production code.
"""

from __future__ import annotations

import math

import numpy as np

from dehash.formats import EARTH_RADIUS_M


def vlad_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """L2 distance from ``q`` to every row of the C-ordered ``(n, N*D)`` matrix."""
    return np.sqrt(np.sum((matrix - q) ** 2, axis=1))


def bow_scores(bow, query) -> np.ndarray:
    """``rank_bow``'s score per row: every stored entry gathered from a dense
    query, ``min(a_w*B, b_w*A)``, one ``np.add.reduceat`` per row."""
    words = np.fromiter(query.counts.keys(), dtype=np.int64, count=len(query.counts))
    values = np.fromiter(query.counts.values(), dtype=np.float64, count=len(query.counts))
    mass = float(values[np.argsort(words, kind="stable")].sum())  # ascending by word
    dense = np.zeros(bow.vocab_size, dtype=np.float64)
    dense[words] = values
    entry_mass = bow.mass.repeat(np.diff(bow.indptr))
    scaled = dense[bow.words] * entry_mass
    np.minimum(scaled, bow.counts * mass, out=scaled)
    joint = mass * bow.mass
    return 2.0 * (joint - np.add.reduceat(scaled, bow.indptr[:-1])) / joint


def adc_scores(books: np.ndarray, codes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``rank_adc``'s score per row of the raw ``(n, m)`` codes: the
    ``(m, k)`` table of squared distances from each query sub-vector to its
    codebook, gathered through the offsets ``j * k + code`` and summed per row."""
    m, k, width = books.shape
    table = np.sum((books - q.reshape(m, 1, width)) ** 2, axis=2)
    gathered = table.ravel().take(codes.astype(np.int64) + np.arange(m) * k)
    return gathered.sum(axis=1)


def haversine_scan(lat_lon: np.ndarray, query: tuple[float, float]) -> np.ndarray:
    """Great-circle metres from ``query`` to every ``(lat, lon)`` row, in
    degrees: the haversine of ``pair_reference.haversine_m`` in numpy."""
    lat1, lon1 = math.radians(query[0]), math.radians(query[1])
    lat2, lon2 = np.radians(lat_lon[:, 0]), np.radians(lat_lon[:, 1])
    s = np.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))
