"""BoW histograms and VLAD vectors computed from descriptor sets.

A VLAD is a float64 ``(N, D)`` array of per-center residual sums, raw and
unnormalized from ``compute_vlad`` through hashing and reconstruction,
because the linear model tying a VLAD sub-vector to its BoW counts holds at
raw scale.  ``vlad_rows`` is the one shape check every entry point applies.
Only ranking normalizes, and always the one way ``RANK_NORMALIZATION`` names:
intra-normalization, then a global L2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vocab import PASS_ROWS, VocabularyTree, _passes, assign_descriptors, cluster_sums

RANK_NORMALIZATION = "intra-then-global-l2"


def _readonly(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the array itself stays as writeable as it was."""
    view = array.view()
    view.flags.writeable = False
    return view


def _check_rows(indptr: np.ndarray, words: np.ndarray, values: np.ndarray, vocab_size: int) -> None:
    """``ValueError`` unless every CSR row ``words[indptr[r]:indptr[r + 1]]``
    ascends strictly inside ``[0, vocab_size)`` with positive values (NaN is
    not positive)."""
    rising = np.diff(words) > 0
    rising[indptr[1:-1] - 1] = True  # rows restart at their first word
    if not (rising.all() and np.all(values > 0) and np.all((0 <= words) & (words < vocab_size))):
        raise ValueError(f"BoW rows need ascending words in [0, {vocab_size}) with positive counts")


class BowHistogram:
    """Sparse non-negative histogram over the leaf vocabulary: word
    ``words[k]`` has weight ``values[k]``.

    ``words`` (int64) ascend strictly inside ``[0, vocab_size)`` and every
    value (float64) is positive, else ``ValueError``; both are kept as
    read-only views, so a histogram is passed from stage to stage without copies.
    ``counts`` is the same histogram as a new ``{word: value}`` dict.
    """

    def __init__(self, words, values, vocab_size: int) -> None:
        words = np.asarray(words, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if words.ndim != 1 or words.shape != values.shape:
            raise ValueError("a histogram needs one value per word")
        _check_rows(np.array([0, len(words)]), words, values, vocab_size)
        self.words = _readonly(words)
        self.values = _readonly(values)
        self.vocab_size = vocab_size

    @property
    def counts(self) -> dict[int, float]:
        return dict(zip(self.words.tolist(), self.values.tolist()))

    @property
    def num_words(self) -> int:
        return len(self.words)

    def total(self) -> float:
        """The values added one by one, in ascending word order."""
        return float(sum(self.values.tolist()))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.vocab_size, dtype=np.float64)
        dense[self.words] = self.values
        return dense


def vlad_rows(v, shape: tuple[int, int]) -> np.ndarray:
    """``v`` as a float64 ``(N, D)`` array; ``ValueError`` unless its shape is
    ``shape``, the ``(N, D)`` of the tree, model or index it is used with."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != tuple(shape):
        raise ValueError(f"VLAD has shape {v.shape}, expected {tuple(shape)}")
    return v


@dataclass
class VladVector:
    """A ranking-normalized VLAD, as :func:`normalize_vlad` returns it."""

    subvectors: np.ndarray  # (N, D) float64

    def flattened(self) -> np.ndarray:
        return self.subvectors.reshape(-1)


class BowMatrix:
    """Sparse histograms as CSR rows, one per image, plus their posting lists;
    every array read-only and in the narrowest type that holds its values
    exactly.

    Row ``r`` holds ``words[indptr[r]:indptr[r + 1]]`` in ascending order with
    their raw ``counts``; ``mass[r]`` is the row's float64 total, so the
    row's L1-normalized weights are ``counts / mass[r]``.  The posting lists
    are the same entries ordered by word (the inverted file): word ``w``'s
    entries sit at ``posting_entries[posting_ptr[w]:posting_ptr[w + 1]]``
    (positions in ``words`` and ``counts``, ascending) and belong to rows
    ``posting_rows`` at the same places.  ``ValueError`` unless every row
    holds at least one word, ascending and inside the vocabulary, with a
    positive count.

    ``words`` are uint16 while ``vocab_size <= 2**16``, else int32;
    ``posting_rows`` are uint16 while there are at most ``2**16`` rows, else
    like ``posting_entries`` int32 (int64 past ``2**31 - 1`` entries).
    Counts given in an integer type are kept in the smallest unsigned type
    that holds the largest; other counts (fractional ones) are float64, a
    view when given as float64.  ``mass`` is summed from the counts as
    float64, and every reader converts them back to float64, which is exact
    for integers, so the narrowing changes no score, weight or histogram.
    """

    def __init__(
        self, indptr: np.ndarray, words: np.ndarray, counts: np.ndarray, vocab_size: int
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        words = np.asarray(words, dtype=np.int64)
        given = np.asarray(counts)
        counts = given.astype(np.float64, copy=False)
        sizes = np.diff(indptr)
        if indptr[0] != 0 or np.any(sizes < 1) or not indptr[-1] == len(words) == len(counts):
            raise ValueError("every BoW row needs at least one word, and one count per word")
        _check_rows(indptr, words, counts, vocab_size)
        self.indptr = _readonly(indptr)
        self.mass = _readonly(np.add.reduceat(counts, indptr[:-1]))
        if given.dtype.kind in "iu":
            counts = given.astype(np.min_scalar_type(given.max(initial=0)))
        self.counts = _readonly(counts)
        self.vocab_size = vocab_size
        # A stable sort keeps each word's entries ascending; on 16-bit keys
        # numpy's stable sort is a radix sort.
        words = words.astype(np.uint16 if vocab_size <= 2**16 else np.int32)
        self.words = _readonly(words)
        position = np.int32 if len(words) <= np.iinfo(np.int32).max else np.int64
        self.posting_entries = _readonly(words.argsort(kind="stable").astype(position))
        rows = np.arange(len(sizes), dtype=np.uint16 if len(sizes) <= 2**16 else position)
        self.posting_rows = _readonly(rows.repeat(sizes)[self.posting_entries])
        ptr = np.zeros(vocab_size + 1, dtype=np.int64)
        np.bincount(words, minlength=vocab_size).cumsum(out=ptr[1:])
        self.posting_ptr = _readonly(ptr)

    def span(self, row: int) -> slice:
        return slice(int(self.indptr[row]), int(self.indptr[row + 1]))

    def histogram(self, row: int) -> BowHistogram:
        """Row ``row`` as a raw-count histogram."""
        s = self.span(row)
        return BowHistogram(self.words[s], self.counts[s], self.vocab_size)


def _descriptor_array(descriptors: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(descriptors))
    if X.shape[0] == 0:
        raise ValueError("descriptor set must be nonempty")
    return X


def _residual_sums(
    tree: VocabularyTree, X: np.ndarray, vlad_ids: np.ndarray, image: np.ndarray | int, images: int
) -> np.ndarray:
    """``(images, N, D)`` raw VLADs: row ``i``'s residual against its coarse
    center is added to sub-vector ``vlad_ids[i]`` of image ``image[i]``, in row
    order, so an image's sums do not depend on the other images in ``X``."""
    n = tree.num_vlad_centers
    residuals = X - np.asarray(tree.vlad_centers, dtype=np.float64)[vlad_ids]
    return cluster_sums(image * n + vlad_ids, residuals, images * n).reshape(images, n, -1)


def compute_bow(tree: VocabularyTree, descriptors: np.ndarray) -> BowHistogram:
    """Count descriptors per leaf visual word."""
    _, _, leaves = assign_descriptors(tree, _descriptor_array(descriptors))
    counts = np.bincount(leaves, minlength=tree.num_leaves)
    words = np.flatnonzero(counts)
    return BowHistogram(words, counts[words], len(counts))


def compute_vlad(tree: VocabularyTree, descriptors: np.ndarray) -> np.ndarray:
    """The raw ``(N, D)`` VLAD: descriptor residuals summed against their
    coarse centers.  Centers receiving no descriptor keep a zero sub-vector.
    """
    X, vlad_ids, _ = assign_descriptors(tree, _descriptor_array(descriptors), leaves=False)
    return _residual_sums(tree, X, vlad_ids, 0, 1)[0]


def aggregate_images(
    tree: VocabularyTree, descriptor_sets: Sequence[np.ndarray], bow: bool = True
) -> tuple[BowMatrix | None, np.ndarray]:
    """The index columns of ``descriptor_sets``, row ``r`` from set ``r``: the
    BoW histograms as a :class:`BowMatrix` (when ``bow``, else ``None``) and
    the ``(n, N, D)`` stack of raw VLADs.

    Consecutive sets are concatenated into passes of at most ``PASS_ROWS``
    rows.  Each pass searches the coarse centers once and each subtree's
    leaves once (``assign_descriptors``).  One ``bincount`` keyed by (image,
    leaf) gives the pass's ``(images, M)`` count matrix, whose non-zero
    entries, read in row-major order, are its CSR rows, ascending by word; one
    residual sum keyed by (image, center) gives its VLAD rows, each image's
    rows added in their own order.  Row ``r`` therefore equals ``compute_bow``
    and ``compute_vlad`` of set ``r`` alone, bit for bit.  An empty or
    non-finite set raises ``ValueError``.
    """
    arrays = [_descriptor_array(X) for X in descriptor_sets]
    m = tree.num_leaves
    vlads = np.empty((len(arrays), tree.num_vlad_centers, tree.dim))
    indptr = np.zeros(len(arrays) + 1, dtype=np.int64)  # words per image, then summed
    # Seeded with empty arrays so that no descriptor sets still concatenate.
    words, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for run in _passes([X.shape[0] for X in arrays], PASS_ROWS):
        batch = arrays[run]
        X, vlad_ids, leaf_ids = assign_descriptors(
            tree, np.concatenate(batch, dtype=np.float64), leaves=bow
        )
        image = np.repeat(np.arange(len(batch)), [len(b) for b in batch])
        vlads[run] = _residual_sums(tree, X, vlad_ids, image, len(batch))
        if bow:
            flat = np.bincount(image * m + leaf_ids, minlength=len(batch) * m)
            nonzero = np.flatnonzero(flat)
            words.append(nonzero % m)
            counts.append(flat[nonzero])
            indptr[run.start + 1 : run.stop + 1] = np.bincount(nonzero // m, minlength=len(batch))
    if not bow:
        return None, vlads
    np.cumsum(indptr, out=indptr)
    return BowMatrix(indptr, np.concatenate(words), np.concatenate(counts), m), vlads


def normalize_vlad(v, mode: str) -> VladVector:
    """The ``(N, D)`` VLAD ``v`` under the ranking normalization, the only
    ``mode`` accepted: every nonzero sub-vector scaled to unit norm, then the
    whole vector divided by its norm; zero (sub-)vectors are left as is.
    """
    if mode != RANK_NORMALIZATION:
        raise ValueError(f"unknown normalization {mode!r}; VLADs rank under {RANK_NORMALIZATION!r}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"a VLAD is an (N, D) array, got shape {v.shape}")
    return VladVector(normalize_vlads(v[None])[0])


def normalize_vlads(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """An ``(n, N, D)`` stack of VLADs under the ranking normalization,
    written to ``out`` (any array of that shape, a transposed view too) when
    given, else to a new C-ordered array; returns it.

    Each row comes out as :func:`normalize_vlad` makes it, bit for bit: the
    sums run over each row's own sub-vectors and then over its flattened
    ``N * D`` values, as one row alone would.  A zero (sub-)vector is divided
    by 1, which leaves it as is.
    """
    if out is None:
        out = np.empty_like(stack, order="C")
    sub = np.ascontiguousarray(stack)  # the sums run over C-ordered rows
    norms = np.sqrt(np.sum(sub * sub, axis=2))
    sub = sub / np.where(norms > 0, norms, 1.0)[:, :, None]
    whole = np.sqrt(np.sum(sub * sub, axis=(1, 2)))
    np.divide(sub, np.where(whole > 0, whole, 1.0)[:, None, None], out=out)
    return out
