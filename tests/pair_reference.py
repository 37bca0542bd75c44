"""Frozen pair-at-a-time distances: the references the vectorized scans and
``attach_pq`` are tested against.

These are the scalar functions ``dehash.retrieval`` shipped before every
scan became one numpy pass over the index's columns, kept unchanged except
that ``l1_histogram_distance`` normalizes through ``l1_normalized`` here
(once ``BowHistogram.l1_normalized``).  Do not edit them to follow the
production code.
"""

from __future__ import annotations

import math

import numpy as np

from dehash.aggregate import BowHistogram
from dehash.hashing import BinaryCode
from dehash.retrieval import EARTH_RADIUS_M, PQCodebooks
from dehash.vocab import nearest_center


def l1_normalized(h: BowHistogram) -> BowHistogram:
    return BowHistogram(h.words, h.values / (h.total() or 1.0), h.vocab_size)


def l1_histogram_distance(a: BowHistogram, b: BowHistogram) -> float:
    """L1 distance between L1-normalized sparse histograms (range [0, 2])."""
    return float(np.abs(l1_normalized(a).to_dense() - l1_normalized(b).to_dense()).sum())


def hamming_distance(a: BinaryCode, b: BinaryCode) -> int:
    if a.nbits != b.nbits:
        raise ValueError("codes differ in length")
    return int(np.bitwise_count(np.bitwise_xor(a.packed, b.packed)).sum())


def _pq_slices(codebooks: PQCodebooks, vector: np.ndarray) -> np.ndarray:
    """``vector`` as its ``(m, sub_dim)`` sub-vectors; ``ValueError`` on a wrong length."""
    vector = np.asarray(vector, dtype=np.float64)
    m, _, sub_dim = codebooks.codebooks.shape
    if vector.shape != (m * sub_dim,):
        raise ValueError(f"codebooks cover dim {m * sub_dim}, vector has shape {vector.shape}")
    return vector.reshape(m, sub_dim)


def encode_pq(codebooks: PQCodebooks, vector: np.ndarray) -> np.ndarray:
    """Nearest-center index per sub-vector slice."""
    subs = _pq_slices(codebooks, vector)
    return np.array(
        [nearest_center(sub[None], books)[0] for sub, books in zip(subs, codebooks.codebooks)],
        dtype=np.uint16,
    )


def adc_distance(codebooks: PQCodebooks, query: np.ndarray, codes: np.ndarray) -> float:
    """Sum of squared sub-distances from the exact query to the quantized entry."""
    subs = _pq_slices(codebooks, query)
    if np.shape(codes) != (len(subs),):
        raise ValueError(f"expected {len(subs)} codes, got shape {np.shape(codes)}")
    total = 0.0
    for j, sub in enumerate(subs):
        center = codebooks.codebooks[j][codes[j]]
        total += float(np.sum((sub - center) ** 2))
    return total


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (*a, *b))
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))
