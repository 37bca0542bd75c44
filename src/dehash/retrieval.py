"""Database indexing, ranking modes, and retrieval-quality metrics.

Every ranking mode is a deterministic brute-force scan: ascending distance,
equal scores broken by ascending image id.  Equal distances give equal scores
except where rounding separates them: a BoW query with fractional counts
(every reconstructed histogram) can score images at exactly equal L1
distance 1-2 ulps apart, and then the rounding, not the id, orders them
(see :func:`rank_bow`).  Histograms compare under L1 after L1
normalization, VLADs under L2 after the index's ranking normalization, codes
under Hamming distance, and product-quantized entries under asymmetric
distance (exact query against quantized database).

The index is columnar.  Each per-image representation is stored once, as an
array with one row per image, which ``build_index`` aggregates straight from
the descriptors, so each ``rank_*`` computes the whole score vector in one
numpy pass.  Rows follow the ascending image ids, so the stable order of the
scores is the (score, id) order.  ``DatabaseIndex._ranking`` gets it from
one sort of distinct (score bits, row) keys for float rankings (see
:func:`_packed_argsort`), and from numpy's stable sort for integer scores
(the Hamming bit counts, as uint8 or uint16 keys: a radix sort), kept as
float64:

* BoW: a CSR matrix (row pointers, uint16 word ids while the vocabulary has
  at most 2**16 words, counts in the smallest unsigned type that holds them)
  with each row's float64 total, so a row's L1-normalized weights are its
  counts over its total, and its posting lists (each word's entries, with
  uint16 rows while the index has at most 2**16 images); scored with the
  sum-of-min identity ``|a - b|_1 = 2 - 2 * sum_i min(a_i, b_i)`` for
  L1-normalized ``a`` and ``b``, whose terms are non-zero only at the words
  the query holds, so only those words' postings are visited; evaluated on
  counts converted to float64, so that integer counts score exactly (see
  :func:`rank_bow`);
* codes: an ``(n, K/8)`` uint8 matrix, scored by XOR and ``np.bitwise_count``
  in the widest words that tile a row, the counts added in the smallest
  unsigned type that holds ``K``;
* VLAD: the raw ``(n, N*D)`` matrix, and its copy under the one ranking
  normalization (``aggregate.RANK_NORMALIZATION``: intra-normalization, then
  a global L2) stored column-major as ``(N*D, n)``, written in one pass over
  the ``(n, N, D)`` stack; a scan streams it 8 dimensions at a time and adds
  the squared differences in the order numpy's row sums use
  (:func:`dehash.vocab.column_sq_distances`); a query VLAD is a raw ``(N, D)``
  array of the stored shape;
* PQ codes: one column-major ``(m, n)`` matrix with each sub-vector's codes
  offset by ``j * k`` (uint16 while ``m * k <= 2**16``), so it indexes the
  flattened ``(m, k)`` look-up table directly; the table and each image's
  sum over its ``m`` entries are added in ``np.sum``'s pairwise order
  (:func:`dehash.vocab.pairwise_row_sums`), 8 code rows at a time;
* GPS: an ``(n, 2)`` matrix in radians (NaN where an image has none) and the
  cosine of each latitude, scored by a vectorized haversine;
* categories: an ``(n,)`` column in the smallest signed type that holds
  them, ``-1`` where an image has none.

A :class:`Ranking` holds a scan's result as two arrays over the index's
shared id table: the row order (the stable ``argsort`` of the scores) and
the scores in that order.  Dropping the query is one integer mask, a
position one comparison over the order, and the context cues and BRPK read
only the leading ids (``top_ids``).  The metrics work from the positions of
the relevant images.  The ``(image_id, score)`` tuples (``entries``) and
``ids()`` are built only when asked for, as the text dump does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .aggregate import (
    RANK_NORMALIZATION, BowHistogram, BowMatrix, _readonly, aggregate_images, normalize_vlads, vlad_rows
)
from .formats import EARTH_RADIUS_M
from .hashing import BinaryCode, HashingModel, encode_stack
from .vocab import VocabularyTree, column_sq_distances, kmeans, nearest_center, pairwise_row_sums


class Ranking:
    """Result list, best first, with the mode's score convention.

    Held as arrays: ``_order`` lists rows of a shared id table ``_ids`` (a
    ranking from an index uses the index's own table and row lookup) and
    ``_scores`` the float64 score at each rank.  ``drop`` is one integer
    mask, ``position`` one comparison over the order, and ``top_ids`` reads
    only the leading rows.  ``entries`` (``(image_id, score)`` pairs) and
    ``ids()`` are built on first use; building them is the only per-entry
    Python work a ranking does.

    ``Ranking(entries)`` accepts any pairs as given, out of order or with
    repeated ids, and ``entries`` returns them unchanged; ``drop`` removes
    every pair of an id and ``position`` finds its first.  ``degenerate`` is
    set when the query was empty and the order is by id only.
    """

    __slots__ = ("_ids", "_rows", "_order", "_scores", "_entries", "degenerate")

    def __init__(self, entries: Sequence[tuple[str, float]], degenerate: bool = False) -> None:
        entries = tuple(entries)
        rows: dict[str, int] = {}
        order = [rows.setdefault(image_id, len(rows)) for image_id, _ in entries]
        ids = np.empty(len(rows), dtype=object)
        ids[:] = list(rows)
        scores = np.array([score for _, score in entries], dtype=np.float64)
        self._set(ids, rows, np.array(order, dtype=np.intp), scores, degenerate)
        self._entries = entries

    @classmethod
    def _of_rows(
        cls,
        ids: np.ndarray,
        rows: Mapping[str, int],
        order: np.ndarray,
        scores: np.ndarray,
        degenerate: bool,
    ) -> "Ranking":
        """``ids[order[k]]`` at rank ``k + 1`` with ``scores[k]``; ``rows`` inverts ``ids``."""
        ranking = cls.__new__(cls)
        ranking._set(ids, rows, order, scores, degenerate)
        return ranking

    def _set(self, ids, rows, order, scores, degenerate) -> None:
        self._ids = ids
        self._rows = rows
        self._order = order
        self._scores = scores
        self._entries: tuple[tuple[str, float], ...] | None = None
        self.degenerate = degenerate

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        """``(image_id, score)`` pairs, best first."""
        if self._entries is None:
            self._entries = tuple(zip(self.ids(), self._scores.tolist()))
        return self._entries

    def __len__(self) -> int:
        return len(self._order)

    def ids(self) -> list[str]:
        return self._ids[self._order].tolist()

    def top_ids(self, n: int) -> list[str]:
        """The ids of the first ``n`` entries (sliced as ``entries[:n]``)."""
        return self._ids[self._order[:n]].tolist()

    def position(self, image_id: str) -> int:
        """1-based rank of an image's first entry; raises if absent."""
        at = np.flatnonzero(self._order == self._rows.get(image_id, -1))
        if at.size:
            return int(at[0]) + 1
        raise ValueError(f"{image_id!r} not present in ranking")

    def positions(self, image_ids: Iterable[str]) -> np.ndarray:
        """Ascending 1-based ranks of every entry whose id is in ``image_ids``."""
        hit = np.zeros(len(self._ids), dtype=bool)
        hit[[self._rows[i] for i in image_ids if i in self._rows]] = True
        return np.flatnonzero(hit[self._order]) + 1

    def drop(self, image_id: str) -> "Ranking":
        """This ranking without any entry of ``image_id``."""
        keep = self._order != self._rows.get(image_id, -1)
        return Ranking._of_rows(
            self._ids, self._rows, self._order[keep], self._scores[keep], self.degenerate
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.degenerate == other.degenerate and self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"Ranking(entries={self.entries!r}, degenerate={self.degenerate!r})"


def ranking_dump_lines(query_id: str, ranking: Ranking) -> list[str]:
    """Text dump: one ``query_id image_id rank score`` line per result."""
    return [
        f"{query_id} {image_id} {rank} {score:.17g}"
        for rank, (image_id, score) in enumerate(ranking.entries, start=1)
    ]


@dataclass
class PQCodebooks:
    """Per-sub-vector quantizer tables: (m, 2**b, total_dim / m)."""

    codebooks: np.ndarray
    bits: int


class _ByRow(Mapping):
    """Read-only by-id view of one stored column; ``make(row)`` builds a value."""

    def __init__(
        self,
        ids: tuple[str, ...],
        rows: Mapping[str, int],
        make: Callable[[int], object],
        present: np.ndarray | None = None,
    ) -> None:
        self._ids = ids
        self._rows = rows
        self._make = make
        self._present = present  # None: every image has a value

    def __getitem__(self, image_id: str):
        row = self._rows[image_id]
        if self._present is not None and not self._present[row]:
            raise KeyError(image_id)
        return self._make(row)

    def __contains__(self, image_id: object) -> bool:
        row = self._rows.get(image_id)
        return row is not None and (self._present is None or bool(self._present[row]))

    def __iter__(self) -> Iterator[str]:
        if self._present is None:
            return iter(self._ids)
        return (i for i, has in zip(self._ids, self._present) if has)

    def __len__(self) -> int:
        return len(self._ids) if self._present is None else int(self._present.sum())


_EMPTY: Mapping = MappingProxyType({})


class DatabaseIndex:
    """All stored per-image representations, as columns with one row per image.

    Row ``r`` of every column belongs to ``ids[r]``, and ``ids`` must be
    strictly ascending, so a stable sort of a score vector breaks ties by id.
    Each column is optional and, when given, has one row per id: ``bow``, a
    :class:`BowMatrix` over the tree's leaves, in its narrow types (uint16
    words and posting rows, small unsigned counts); ``vlads``, the ``(n, N, D)``
    raw VLAD stack (both from ``aggregate_images``), kept as an ``(n, N*D)``
    matrix plus its copy under ``rank_normalization`` (always
    ``RANK_NORMALIZATION``), column-major ``(N*D, n)``;
    ``codes``, the packed ``(n, ceil(nbits / 8))`` uint8 code matrix
    (``encode_stack``).  ``gps`` may miss images and becomes an ``(n, 2)``
    radians matrix, NaN where an image has no fix, plus each latitude's
    cosine; ``categories`` may miss images too and becomes an ``(n,)``
    column of non-negative integers, ``-1`` where an image has none.
    ``attach_pq`` adds the ``(m, n)`` offset PQ code matrix.  A column that
    breaks these rules raises ``ValueError``.  The arrays are kept as
    read-only views, not copies, and ``bows``, ``vlads`` (raw ``(N, D)`` row
    views), ``codes``, ``pq_codes``, ``gps`` and ``categories`` are by-id
    views over them.
    """

    rank_normalization = RANK_NORMALIZATION

    def __init__(
        self,
        tree: VocabularyTree,
        ids: Sequence[str],
        bow: BowMatrix | None = None,
        vlads: np.ndarray | None = None,
        codes: np.ndarray | None = None,
        nbits: int | None = None,
        gps: Mapping[str, tuple[float, float]] | None = None,
        categories: Mapping[str, int] | None = None,
    ) -> None:
        self.tree = tree
        self.ids = tuple(ids)
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("image ids must be strictly ascending")
        n = len(self.ids)
        self.pq: PQCodebooks | None = None
        self._row = {image_id: r for r, image_id in enumerate(self.ids)}
        self._ids_array = np.array(self.ids, dtype=object)

        self.bow = bow
        self._vlad_matrix: np.ndarray | None = None
        self._rank_columns: np.ndarray | None = None
        self._vlad_shape: tuple[int, int] | None = None
        self._codes: np.ndarray | None = None
        self.nbits = nbits
        self._pq_codes: np.ndarray | None = None
        self._gps: np.ndarray | None = None
        self._gps_cos: np.ndarray | None = None
        self._categories: np.ndarray | None = None
        self.bows: Mapping[str, BowHistogram] = _EMPTY
        self.vlads: Mapping[str, np.ndarray] = _EMPTY
        self.codes: Mapping[str, BinaryCode] = _EMPTY
        self.pq_codes: Mapping[str, np.ndarray] = _EMPTY
        self.gps: Mapping[str, tuple[float, float]] = _EMPTY
        self.categories: Mapping[str, int] = _EMPTY

        if bow is not None:
            _check_rows("BoW", len(bow.indptr) - 1, n)
            if bow.vocab_size != tree.num_leaves:
                raise ValueError(f"BoW over {bow.vocab_size} words, index vocabulary is {tree.num_leaves}")
            self.bows = self._view(bow.histogram)
        if vlads is not None:
            if vlads.ndim != 3:
                raise ValueError(f"VLADs must be an (n, N, D) stack, got shape {vlads.shape}")
            _check_rows("VLAD", len(vlads), n)
            shape = self._vlad_shape = vlads.shape[1:]
            self._vlad_matrix = _readonly(vlads).reshape(n, math.prod(shape))
            columns = np.empty((math.prod(shape), n))
            normalize_vlads(vlads, out=columns.reshape(*shape, n).transpose(2, 0, 1))
            self._rank_columns = _readonly(columns)
            self.vlads = self._view(lambda r: self._vlad_matrix[r].reshape(shape))
        if codes is not None:
            if nbits is None or codes.shape[1:] != ((nbits + 7) // 8,):
                raise ValueError(f"codes of shape {codes.shape} do not pack {nbits} bits per row")
            _check_rows("code", len(codes), n)
            self._codes = _readonly(np.ascontiguousarray(codes, dtype=np.uint8))
            if nbits % 8 and np.any(self._codes[:, -1] >> nbits % 8):
                raise ValueError(f"codes set bits past their {nbits} bits")
            self.codes = self._view(lambda r: BinaryCode(self._codes[r], nbits))
        for what, given in (("GPS", gps), ("categories", categories)):
            unknown = [i for i in given or () if i not in self._row]
            if unknown:
                raise ValueError(f"{what} given for unknown images: {unknown[:3]}")
        if gps:
            table = np.empty((n, 2))
            table.fill(np.nan)
            for image_id, (lat, lon) in gps.items():
                table[self._row[image_id]] = (math.radians(lat), math.radians(lon))
            self._gps = _readonly(table)
            self._gps_cos = _readonly(np.cos(table[:, 0]))
            self.gps = self._view(
                lambda r: (math.degrees(table[r, 0]), math.degrees(table[r, 1])),
                present=_readonly(~np.isnan(table[:, 0])),
            )
        if categories:
            given = np.fromiter(categories.values(), dtype=np.int64, count=len(categories))
            if given.min() < 0:
                raise ValueError(f"categories must be non-negative, got {int(given.min())}")
            # The smallest signed type that holds -1 and the largest category.
            column = np.empty(n, dtype=np.min_scalar_type(-1 - int(given.max())))
            column.fill(-1)
            column[[self._row[i] for i in categories]] = given
            self._categories = _readonly(column)
            self.categories = self._view(lambda r: int(column[r]), present=_readonly(column >= 0))

    def _view(self, make: Callable[[int], object], present: np.ndarray | None = None) -> Mapping:
        return _ByRow(self.ids, self._row, make, present)

    def row(self, image_id: str) -> int:
        """Row of ``image_id`` in every column; raises ``KeyError`` if absent."""
        return self._row[image_id]

    def ranking_vlad_matrix(self) -> np.ndarray:
        """A new C-ordered ``(n, N*D)`` copy of the ranking-normalized VLADs,
        row ``r`` for ``ids[r]`` (the index keeps them column-major)."""
        if self._rank_columns is None:
            raise ValueError("index stores no VLADs")
        return self._rank_columns.T.copy()

    def _ranking(self, scores: np.ndarray, degenerate: bool = False) -> Ranking:
        """Order every image by (score, id): rows are in id order, so the stable order.

        Integer scores (bit counts) take numpy's stable sort (a radix sort
        on 8- and 16-bit keys) and are kept as float64.  Float scores take
        :func:`_packed_argsort`, whose ties are in row order; if the scores
        come out of order, a stable sort of them in that order keeps those
        ties and fixes the rest, in about one pass where only a few close
        pairs were swapped.
        """
        if scores.dtype.kind in "iu":
            order = np.argsort(scores, kind="stable")
            ordered = scores[order].astype(np.float64, copy=False)
        else:
            order = _packed_argsort(scores)
            ordered = scores[order]
            if not np.all(ordered[1:] >= ordered[:-1]):
                again = np.argsort(ordered, kind="stable")
                order, ordered = order[again], ordered[again]
        return Ranking._of_rows(self._ids_array, self._row, order, ordered, degenerate)


def _packed_argsort(scores: np.ndarray) -> np.ndarray:
    """The rows of float ``scores`` sorted by ``(bits of score, row)`` keys.

    A key is the uint64 bits of ``fmax(score, 0.0) + 0.0`` (negative and
    NaN scores of any sign or payload key as ``+0.0``) with its low
    ``(n - 1).bit_length()`` bits replaced by the row.  The keys are
    distinct, so every sort gives this order, and equal scores (all NaNs
    among them, as the stable sort has it) come out in row order.  Where
    the sorted scores are non-decreasing it is ``np.argsort(scores,
    kind="stable")``; a negative or NaN score, or unequal scores that share
    their high bits in reverse row order, leave them out of order.
    """
    n = len(scores)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = np.fmax(scores, 0.0, dtype=np.float64)
    keys += 0.0  # -0.0, which np.fmax may return, to +0.0
    keys = keys.view(np.uint64)
    keys &= ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    keys &= low
    return keys.view(np.intp)


def _check_rows(column: str, rows: int, ids: int) -> None:
    if rows != ids:
        raise ValueError(f"{column} column has {rows} rows for {ids} image ids")


def build_index(
    tree: VocabularyTree,
    model: HashingModel,
    descriptors_by_id: Mapping[str, np.ndarray],
    gps: Mapping[str, tuple[float, float]] | None = None,
    categories: Mapping[str, int] | None = None,
) -> DatabaseIndex:
    """Index a database: its BoW, raw VLAD and binary code columns.

    The images, sorted by id, go through the tree in passes of
    ``aggregate_images`` (at most ``PASS_ROWS`` rows each, an image with more
    alone), which write the BoW CSR rows and the VLAD stack directly;
    ``encode_stack`` hashes each VLAD row, and the index ranks the VLADs
    under ``RANK_NORMALIZATION``.  Every column is bit-identical to per-image
    ``compute_bow``, ``compute_vlad`` and ``encode``.  An empty or non-finite
    descriptor set raises ``ValueError``.
    """
    ids = sorted(descriptors_by_id)
    bow, vlads = aggregate_images(tree, [descriptors_by_id[i] for i in ids])
    codes = encode_stack(model, vlads)
    return DatabaseIndex(tree, ids, bow, vlads, codes, model.nbits, gps, categories)


def rank_bow(index: DatabaseIndex, query: BowHistogram) -> Ranking:
    """L1 ranking of L1-normalized histograms by the sum-of-min identity.

    For a query ``a`` of mass ``A`` and a stored row ``b`` of mass ``B``,
    ``|a/A - b/B|_1 = 2 - 2 * sum_i min(a_i/A, b_i/B)
    = 2 * (A*B - sum_i min(a_i*B, b_i*A)) / (A*B)``.  The last form sums over
    the words the row holds, and with integer counts every product and sum in
    it is exact, so images at equal distance score equal floats and fall back
    to the id order.  With fractional query counts (a reconstructed
    histogram) the products round per row, so two images at exactly equal
    distance can score 1-2 ulps apart and rank in that order, whatever their
    ids.  ``A`` is ``np.sum`` of the query's ``values``, which
    the histogram already holds in ascending word order, as arrays the scan
    reads without conversion.

    A term is zero unless the query holds the word, so ``min(a_w*B, b_w*A)``
    is computed only for the postings of the query's words and binned by
    ``np.bincount`` at their CSR positions (the words are distinct, so each
    bin is ``0.0 + hit``, the positive hit itself).  That array equals,
    value for value, the one a dense gather over every stored entry builds,
    for integer and fractional counts alike, and one ``np.add.reduceat``
    sums each row of it, so the scores are the same floats.
    """
    if not index.ids:
        raise ValueError("index is empty")
    bow = index.bow
    if bow is None:
        raise ValueError("index stores no BoW histograms")
    if query.vocab_size != index.tree.num_leaves:
        raise ValueError(
            f"query histogram over {query.vocab_size} words, index vocabulary is {index.tree.num_leaves}"
        )
    if not query.num_words:
        # No words to compare against: fall back to a flagged id-order ranking.
        return index._ranking(np.full(len(index.ids), 2.0), degenerate=True)
    words, values = query.words, query.values
    mass = float(values.sum())
    ends = bow.posting_ptr[words + 1]
    sizes = ends - bow.posting_ptr[words]
    # The query words' postings laid end to end: word k's block ends at
    # ends[k] in the posting lists and at cum[k] in ``at``.
    cum = sizes.cumsum()
    at = (ends - cum).repeat(sizes)
    at += np.arange(len(at))
    entries = bow.posting_entries[at]
    hits = values.repeat(sizes) * bow.mass[bow.posting_rows[at]]
    np.minimum(hits, bow.counts[entries] * mass, out=hits)
    terms = np.bincount(entries, hits, minlength=len(bow.counts))
    joint = mass * bow.mass
    return index._ranking(2.0 * (joint - np.add.reduceat(terms, bow.indptr[:-1])) / joint)


def _normalized_query(index: DatabaseIndex, query: np.ndarray) -> np.ndarray:
    """The raw ``(N, D)`` ``query`` flattened under the ranking normalization.

    ``ValueError`` unless its shape is the stored VLADs': a query of another
    shape would broadcast against, or be normalized over other sub-vectors
    than, the rows it is compared with.
    """
    if index._vlad_shape is None:
        raise ValueError("index stores no VLADs")
    return normalize_vlads(vlad_rows(query, index._vlad_shape)[None]).reshape(-1)


def rank_vlad(index: DatabaseIndex, query: np.ndarray) -> Ranking:
    if not index.ids:
        raise ValueError("index is empty")
    q = _normalized_query(index, query)
    return index._ranking(np.sqrt(column_sq_distances(index._rank_columns, q)))


def rank_hamming(index: DatabaseIndex, query: BinaryCode) -> Ranking:
    if not index.ids:
        raise ValueError("index is empty")
    if index._codes is None:
        raise ValueError("index stores no binary codes")
    if query.nbits != index.nbits:
        raise ValueError(f"query code has {query.nbits} bits, index codes {index.nbits}")
    # XOR and count in the widest words that tile a code; the counts of a
    # row's words add up to its distance, exactly, in the smallest key type.
    size = next(size for size in (8, 4, 2, 1) if index._codes.shape[1] % size == 0)
    word = np.dtype(f"u{size}")
    query_words = np.ascontiguousarray(query.packed).view(word)
    counts = np.bitwise_count(index._codes.view(word) ^ query_words)
    differing = counts[:, 0].astype(np.min_scalar_type(index.nbits))
    for j in range(1, counts.shape[1]):
        differing += counts[:, j]
    return index._ranking(differing)


def train_pq(
    vectors: np.ndarray,
    subvectors: int,
    bits: int,
    seed: int = 0,
) -> PQCodebooks:
    """Fit product-quantizer codebooks to ``(n, dim)`` rows: one
    ``vocab.kmeans`` group per sub-vector slice, seeded from its own
    ``default_rng([seed, j])``.  With fewer rows than centers, every row is a
    center and the rest repeat rows drawn from that generator.  Every
    codebook equals that of the frozen trainer in ``tests/pq_reference.py``
    bit for bit."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n, total = vectors.shape
    if total % subvectors != 0:
        raise ValueError(f"{subvectors} sub-vectors do not divide dim {total}")
    k = 2**bits
    width = total // subvectors
    books = np.empty((subvectors, k, width), dtype=np.float64)
    for j in range(subvectors):
        sub = vectors[:, j * width : (j + 1) * width]
        rng = np.random.default_rng([seed, j])
        if n >= k:
            centers, _ = kmeans(sub, [n], k, [rng])
        else:
            # Fewer samples than centers: every sample is a center, rest repeat.
            centers = sub[rng.integers(0, n, size=k)]
            centers[:n] = sub
        books[j] = centers
    return PQCodebooks(codebooks=books, bits=bits)


def attach_pq(index: DatabaseIndex, codebooks: PQCodebooks) -> None:
    """Quantize every database image's ranking-normalized VLAD.

    One ``nearest_center`` call per sub-vector over all rows, on a C-ordered
    copy of that sub-vector's columns, so each row's code equals that of the
    row's sub-vector quantized alone.  The codes are stored column-major,
    ``(m, n)``, each row ``j`` offset by ``j * k`` so that it indexes the
    flattened ``(m, k)`` look-up table directly, in the smallest unsigned
    type that holds ``m * k - 1`` (uint16 while ``m * k <= 2**16``).
    ``pq_codes`` gives each image's raw codes.
    """
    if index._rank_columns is None:
        raise ValueError("index stores no VLADs")
    columns = index._rank_columns
    books = codebooks.codebooks
    m, k, width = books.shape
    if m * width != len(columns):
        raise ValueError(f"codebooks cover dim {m * width}, VLADs have {len(columns)}")
    codes = np.empty((m, len(index.ids)), dtype=np.min_scalar_type(m * k - 1))
    for j in range(m):
        codes[j] = nearest_center(columns[j * width : (j + 1) * width].T.copy(), books[j])
    offsets = (np.arange(m) * k).astype(codes.dtype)
    codes += offsets[:, None]
    raw = np.uint8 if k <= 256 else np.uint16
    index.pq = codebooks
    index._pq_codes = _readonly(codes)
    index.pq_codes = index._view(lambda r: (codes[:, r] - offsets).astype(raw))


def rank_adc(index: DatabaseIndex, query: np.ndarray) -> Ranking:
    """Asymmetric ranking: exact (normalized) query vs quantized database.

    The look-up table ``table[j, c] = ||q_j - center_{j,c}||^2`` is summed
    over the ``width`` dimensions of whole ``(m, k)`` planes, and each image's
    score over its ``m`` gathered entries, 8 stored code rows at a time;
    both sums run in the pairwise order of :func:`dehash.vocab.pairwise_row_sums`,
    so the scores equal ``np.sum((books - q_j) ** 2, axis=2)`` gathered and
    summed with ``.sum(axis=1)``, bit for bit.
    """
    if index.pq is None or index._pq_codes is None:
        raise ValueError("index has no trained product quantizer")
    q = _normalized_query(index, query)
    books = index.pq.codebooks
    m, k, width = books.shape
    by_dim = books.transpose(2, 0, 1)  # (width, m, k)
    q_by_dim = q.reshape(m, width).T[:, :, None]
    codes = index._pq_codes

    def squares(lo: int, hi: int, out: np.ndarray) -> None:
        np.subtract(by_dim[lo:hi], q_by_dim[lo:hi], out=out.reshape(hi - lo, m, k))
        np.square(out, out=out)

    def entries(lo: int, hi: int, out: np.ndarray) -> None:
        np.take(table, codes[lo:hi], out=out, mode="clip")  # the offsets are in range

    table = pairwise_row_sums(squares, width, m * k)
    return index._ranking(pairwise_row_sums(entries, m, codes.shape[1]))


def rank_gps(index: DatabaseIndex, query_gps: tuple[float, float]) -> Ranking:
    if index._gps is None:
        raise ValueError("index carries no GPS data")
    table = index._gps
    missing = np.flatnonzero(np.isnan(table[:, 0]))
    if missing.size:
        raise ValueError(f"images without GPS: {[index.ids[r] for r in missing[:3]]}")
    lat1, lon1 = math.radians(query_gps[0]), math.radians(query_gps[1])
    lat2, lon2 = table[:, 0], table[:, 1]
    s = np.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * index._gps_cos * np.sin((lon2 - lon1) / 2) ** 2
    return index._ranking(2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s))))


def average_precision(ranking: Ranking, relevant: set[str]) -> float:
    if not relevant:
        raise ValueError("query has no relevant images")
    cum = 0.0
    for hits, rank in enumerate(ranking.positions(relevant).tolist(), start=1):
        cum += hits / rank
    return cum / len(relevant)


def mean_average_precision(
    rankings: Mapping[str, Ranking], relevance: Mapping[str, set[str]]
) -> float:
    if not rankings:
        raise ValueError("no queries")
    return float(
        np.mean([average_precision(r, set(relevance[q])) for q, r in rankings.items()])
    )


def recall_at(rankings: Mapping[str, Ranking], reference: Mapping[str, str], n: int) -> float:
    """Fraction of queries whose single reference image appears in the top n."""
    if not rankings:
        raise ValueError("no queries")
    if n < 1:
        raise ValueError(f"recall@{n} is undefined; n must be >= 1")
    hits = sum(1 for q, r in rankings.items() if reference[q] in r.top_ids(n))
    return hits / len(rankings)


def ndcg(rank_of_reference: int) -> float:
    """Single-reference NDCG: 1 / log2(rank + 1)."""
    if rank_of_reference < 1:
        raise ValueError("ranks are 1-based")
    return 1.0 / math.log2(rank_of_reference + 1)


def mean_ndcg(rankings: Mapping[str, Ranking], reference: Mapping[str, str]) -> float:
    if not rankings:
        raise ValueError("no queries")
    return float(
        np.mean([ndcg(r.position(reference[q])) for q, r in rankings.items()])
    )
