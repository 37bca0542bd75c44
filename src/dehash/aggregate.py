"""BoW histograms and VLAD vectors computed from descriptor sets.

The reconstruction path consumes VLAD in raw residual space (plain per-center
residual sums); normalization is applied only where vectors are compared for
ranking, because the linear model tying a VLAD sub-vector to its BoW counts
holds at raw scale.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .vocab import VocabularyTree, assign_descriptors, cluster_sums, read_header

DESC_MAGIC = b"DHDESC01"

# Most descriptor rows one pass of ``aggregate_images`` quantizes together.
# It bounds the pass's temporaries (rows, residuals, sum keys: a few MiB), so
# indexing a large database does not fault in hundreds of MiB of fresh pages;
# an image with more rows gets a pass of its own.
PASS_ROWS = 2**14

NORMALIZATIONS = ("none", "global-l2", "intra-then-global-l2")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    value (float64) is positive, else ``ValueError``; both arrays are made
    read-only, so a histogram is passed from stage to stage without copies.
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

    def l1_normalized(self) -> "BowHistogram":
        return BowHistogram(self.words, self.values / (self.total() or 1.0), self.vocab_size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.vocab_size, dtype=np.float64)
        dense[self.words] = self.values
        return dense


@dataclass
class VladVector:
    """Per-center residual sums, one (dim,) sub-vector per coarse center."""

    subvectors: np.ndarray  # (N, D) float64
    normalization: str = "none"

    def __post_init__(self) -> None:
        self.subvectors = np.asarray(self.subvectors, dtype=np.float64)
        if self.subvectors.ndim != 2:
            raise ValueError("subvectors must be a (N, D) array")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def num_centers(self) -> int:
        return self.subvectors.shape[0]

    def flattened(self) -> np.ndarray:
        return self.subvectors.reshape(-1)


class BowMatrix:
    """Sparse histograms as CSR rows, one per image, plus their posting lists;
    every array read-only.

    Row ``r`` holds ``words[indptr[r]:indptr[r + 1]]`` in ascending order with
    their raw ``counts``; ``mass[r]`` is the row's total, so the row's
    L1-normalized weights are ``counts / mass[r]``.  The posting lists are
    the same entries ordered by word (the inverted file): word ``w``'s
    entries sit at ``posting_entries[posting_ptr[w]:posting_ptr[w + 1]]``
    (positions in ``words`` and ``counts``, ascending) and belong to rows
    ``posting_rows`` at the same places.  ``ValueError`` unless every row
    holds at least one word, ascending and inside the vocabulary, with a
    positive count.
    """

    def __init__(
        self, indptr: np.ndarray, words: np.ndarray, counts: np.ndarray, vocab_size: int
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        words = np.asarray(words, dtype=np.int32)
        counts = np.asarray(counts, dtype=np.float64)
        sizes = np.diff(indptr)
        if indptr[0] != 0 or np.any(sizes < 1) or not indptr[-1] == len(words) == len(counts):
            raise ValueError("every BoW row needs at least one word, and one count per word")
        _check_rows(indptr, words, counts, vocab_size)
        self.indptr = _readonly(indptr)
        self.words = _readonly(words)
        self.counts = _readonly(counts)
        self.mass = _readonly(np.add.reduceat(counts, indptr[:-1]))
        self.vocab_size = vocab_size
        # A stable sort keeps each word's entries ascending; on 16-bit keys
        # numpy's stable sort is a radix sort.
        keys = words.astype(np.uint16) if vocab_size <= 2**16 else words
        position = np.int32 if len(words) <= np.iinfo(np.int32).max else np.int64
        self.posting_entries = _readonly(keys.argsort(kind="stable").astype(position))
        rows = np.arange(len(sizes), dtype=position).repeat(sizes)
        self.posting_rows = _readonly(rows[self.posting_entries])
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


def compute_vlad(
    tree: VocabularyTree,
    descriptors: np.ndarray,
    normalization: str = "none",
) -> VladVector:
    """Sum descriptor residuals against their coarse centers.

    Centers receiving no descriptor keep a zero sub-vector.  ``normalization``
    follows :func:`normalize_vlad`.
    """
    X, vlad_ids, _ = assign_descriptors(tree, _descriptor_array(descriptors), leaves=False)
    return normalize_vlad(VladVector(_residual_sums(tree, X, vlad_ids, 0, 1)[0]), normalization)


def _passes(sizes: Sequence[int]) -> Iterator[slice]:
    """Runs of consecutive images holding at most ``PASS_ROWS`` rows in all,
    except that an image with more rows forms a run of its own."""
    start = rows = 0
    for i, size in enumerate(sizes):
        if rows and rows + size > PASS_ROWS:
            yield slice(start, i)
            start, rows = i, 0
        rows += size
    if rows:
        yield slice(start, len(sizes))


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
    for run in _passes([X.shape[0] for X in arrays]):
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
    return BowMatrix(
        indptr, np.concatenate(words, dtype=np.int32), np.concatenate(counts, dtype=np.float64), m
    ), vlads


def normalize_vlad(v: VladVector, mode: str) -> VladVector:
    """Apply the requested normalization; zero (sub-)vectors are left as is.

    ``intra-then-global-l2`` scales every nonzero sub-vector to unit norm
    first, then divides the whole vector by its norm.
    """
    return VladVector(normalize_vlads(v.subvectors[None], mode)[0], mode)


def normalize_vlads(stack: np.ndarray, mode: str, out: np.ndarray | None = None) -> np.ndarray:
    """A normalized copy of an ``(n, N, D)`` stack of VLAD sub-vectors,
    written to ``out`` (any array of that shape, a transposed view too) when
    given, else to a new C-ordered array; returns it.

    Each row comes out as :func:`normalize_vlad` makes it, bit for bit: the
    sums run over each row's own sub-vectors and then over its flattened
    ``N * D`` values, as one row alone would.  A zero (sub-)vector is divided
    by 1, which leaves it as is.
    """
    if mode not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {mode!r}")
    if out is None:
        out = np.empty_like(stack, order="C")
    if mode == "none":
        out[...] = stack
        return out
    sub = np.ascontiguousarray(stack)  # the sums run over C-ordered rows
    if mode == "intra-then-global-l2":
        norms = np.sqrt(np.sum(sub * sub, axis=2))
        sub = sub / np.where(norms > 0, norms, 1.0)[:, :, None]
    whole = np.sqrt(np.sum(sub * sub, axis=(1, 2)))
    np.divide(sub, np.where(whole > 0, whole, 1.0)[:, None, None], out=out)
    return out


def save_descriptors(path, descriptors: np.ndarray) -> None:
    """Write one image's descriptors (little-endian binary)."""
    X = np.atleast_2d(np.asarray(descriptors, dtype="<f4"))
    with open(path, "wb") as f:
        f.write(DESC_MAGIC)
        f.write(struct.pack("<2I", X.shape[1], X.shape[0]))
        f.write(np.ascontiguousarray(X).tobytes())


def load_descriptors(path) -> np.ndarray:
    data, (dim, count), off = read_header(path, DESC_MAGIC, "<2I", "descriptor")
    need = off + dim * count * 4
    if len(data) != need:
        raise ValueError(f"{path}: payload ends at byte {len(data)}, expected {need}")
    return np.frombuffer(data, dtype="<f4", count=dim * count, offset=off).reshape(count, dim).copy()
