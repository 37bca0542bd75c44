"""Hand-built indexes for the tests: per-image mappings turned into the
columns ``DatabaseIndex`` stores, rows in ascending-id order."""

import copy

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


# Boundary cases of the narrow BowMatrix types, as (rows, vocab_size, largest
# count): vocabularies on either side of 2**16 words (uint16 or int32 words),
# largest integer counts on either side of 2**8 and 2**16 (uint8, uint16 or
# uint32 counts), None for fractional counts (float64), and row counts on
# either side of 2**16 (uint16 or int32 posting rows).
NARROW_CASES = [
    (40, 2**16, 9),
    (40, 2**16 + 1, 9),
    (40, 64, 255),
    (40, 64, 256),
    (40, 64, 65535),
    (40, 64, 65536),
    (40, 64, None),
    (2**16, 64, 9),
    (2**16 + 1, 64, 9),
]


def narrow_case(rows, vocab_size, top, seed=0):
    """``(indptr, words, counts)`` of ``rows`` CSR rows of 1 to 3 words over
    ``vocab_size``, drawn cheaply: words from a few low ids and the last id,
    integer counts 1 to 4 with ``top`` at two entries, or fractional counts
    when ``top`` is None."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=rows)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    pool = np.unique(np.concatenate([np.arange(min(vocab_size, 9)), [vocab_size - 1]]))
    # Each row's words: distinct draws from the pool, ascending.
    keys = rng.random((rows, len(pool))).argsort(axis=1)[:, :3]
    keys.sort(axis=1)
    words = pool[keys[np.arange(3) < sizes[:, None]]]
    if top is None:
        counts = rng.uniform(0.01, 5.0, size=len(words))
    else:
        counts = rng.integers(1, 5, size=len(words))
        counts[[0, -1]] = top
    return indptr, words, counts


def widened(bow):
    """``bow`` with its rows stored in the wide types: int32 words and posting
    rows, float64 counts; every other array shared."""
    wide = copy.copy(bow)
    wide.words = bow.words.astype(np.int32)
    wide.counts = bow.counts.astype(np.float64)
    wide.posting_rows = bow.posting_rows.astype(np.int32)
    return wide
