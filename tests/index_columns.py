"""Hand-built indexes for the tests: per-image mappings turned into the
columns ``DatabaseIndex`` stores, rows in ascending-id order."""

import numpy as np

from dehash.aggregate import BowHistogram, BowMatrix
from dehash.retrieval import DatabaseIndex


def histogram_of(counts, vocab_size):
    """A ``BowHistogram`` from a ``{word: value}`` dict in any order."""
    return BowHistogram(sorted(counts), [counts[w] for w in sorted(counts)], vocab_size)


def bow_matrix(histograms, vocab_size):
    """CSR rows of ``BowHistogram``s."""
    indptr = np.cumsum([0] + [h.num_words for h in histograms])
    words = [w for h in histograms for w in h.words.tolist()]
    return BowMatrix(indptr, words, [v for h in histograms for v in h.values.tolist()], vocab_size)


def index_of(tree, ids, bows=None, vlads=None, codes=None, **kwargs):
    """A ``DatabaseIndex`` over the sorted ``ids``; ``bows``, ``vlads`` and
    ``codes`` map every id to its histogram, raw ``(N, D)`` VLAD or
    ``BinaryCode``, or are left out.  Other keywords (gps, categories) go to
    the constructor as given; the index ranks VLADs under the one
    ``RANK_NORMALIZATION``."""
    ids = sorted(ids)
    columns = {}
    if bows:
        vocab_size = tree.num_leaves if tree is not None else bows[ids[0]].vocab_size
        columns["bow"] = bow_matrix([bows[i] for i in ids], vocab_size)
    if vlads:
        columns["vlads"] = np.array([vlads[i] for i in ids])
    if codes:
        columns["codes"] = np.array([codes[i].packed for i in ids])
        columns["nbits"] = codes[ids[0]].nbits
    return DatabaseIndex(tree, ids, **columns, **kwargs)
