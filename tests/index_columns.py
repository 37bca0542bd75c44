"""Hand-built indexes for the tests: per-image mappings turned into the
columns ``DatabaseIndex`` stores, rows in ascending-id order."""

import numpy as np

from dehash.aggregate import BowMatrix
from dehash.retrieval import DatabaseIndex


def bow_matrix(histograms, vocab_size):
    """CSR rows of ``BowHistogram``s, each row ascending by word."""
    words = [sorted(h.counts) for h in histograms]
    counts = [h.counts[w] for h, row in zip(histograms, words) for w in row]
    indptr = np.cumsum([0] + [len(row) for row in words])
    return BowMatrix(indptr, [w for row in words for w in row], counts, vocab_size)


def index_of(tree, ids, bows=None, vlads=None, codes=None, **kwargs):
    """A ``DatabaseIndex`` over the sorted ``ids``; ``bows``, ``vlads`` and
    ``codes`` map every id to its histogram, ``VladVector`` or ``BinaryCode``,
    or are left out.  Other keywords (gps, categories, rank_normalization) go
    to the constructor as given."""
    ids = sorted(ids)
    columns = {}
    if bows:
        vocab_size = tree.num_leaves if tree is not None else bows[ids[0]].vocab_size
        columns["bow"] = bow_matrix([bows[i] for i in ids], vocab_size)
    if vlads:
        columns["vlads"] = np.array([vlads[i].subvectors for i in ids])
    if codes:
        columns["codes"] = np.array([codes[i].packed for i in ids])
        columns["nbits"] = codes[ids[0]].nbits
    return DatabaseIndex(tree, ids, **columns, **kwargs)
