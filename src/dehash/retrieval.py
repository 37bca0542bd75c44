"""Database indexing, ranking modes, and retrieval-quality metrics.

Every ranking mode is a deterministic brute-force scan: ascending distance,
ties broken by ascending image id.  Histograms compare under L1 after L1
normalization, VLADs under L2 after the index's ranking normalization, codes
under Hamming distance, and product-quantized entries under asymmetric
distance (exact query against quantized database).

The index is columnar.  Each per-image representation is stored once, as an
array with one row per image, which ``build_index`` aggregates straight from
the descriptors, so each ``rank_*`` computes the whole score vector in one
numpy pass.  Rows follow the ascending image ids, so the stable order of the
scores is the (score, id) order; ``DatabaseIndex._ranking`` gets it from
numpy's faster unstable sort and puts each run of equal scores back in row
order (see :func:`_stable_argsort`):

* BoW: a CSR matrix (row pointers, int32 word ids, float64 counts) with each
  row's total, so a row's L1-normalized weights are its counts over its
  total, and its posting lists (each word's entries); scored with the
  sum-of-min identity ``|a - b|_1 = 2 - 2 * sum_i min(a_i, b_i)`` for
  L1-normalized ``a`` and ``b``, whose terms are non-zero only at the words
  the query holds, so only those words' postings are visited; evaluated on
  counts so that integer counts score exactly (see :func:`rank_bow`);
* codes: an ``(n, K/8)`` uint8 matrix, scored by XOR and ``np.bitwise_count``;
* VLAD: the raw ``(n, N*D)`` matrix, and its ranking-normalized copy stored
  column-major as ``(N*D, n)``, written in one pass over the ``(n, N, D)``
  stack; a scan streams it 8 dimensions at a time and adds the squared
  differences in the order numpy's row sums use
  (:func:`dehash.vocab.column_sq_distances`); a query VLAD must have the
  stored ``(N, D)`` shape;
* PQ codes: an ``(n, m)`` matrix, scored by one look-up-table gather;
* GPS: an ``(n, 2)`` matrix in radians (NaN where an image has none) and the
  cosine of each latitude, scored by a vectorized haversine.

A :class:`Ranking` holds a scan's result as two arrays over the index's
shared id table: the row order (the stable ``argsort`` of the scores) and
the scores in that order.  Dropping the query is one integer mask, a
position one comparison over the order, and the context cues and BRPK read
only the leading ids (``top_ids``).  The metrics work from the positions of
the relevant images.  The ``(image_id, score)`` tuples (``entries``) and
``ids()`` are built only when asked for, as the text dump does.

``l1_histogram_distance``, ``hamming_distance``, ``adc_distance`` and
``haversine_m`` compare one pair at a time; they are the references the scans
are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .aggregate import (
    BowHistogram, BowMatrix, VladVector, _readonly, aggregate_images, normalize_vlad, normalize_vlads
)
from .hashing import BinaryCode, HashingModel, encode_stack
from .vocab import VocabularyTree, column_sq_distances, kmeans_pp_init, lloyd, nearest_center

EARTH_RADIUS_M = 6_371_000.0

# Below this many scores numpy's stable sort costs less than the unstable
# sort plus the tie repair (the two cross between about 500 and 2000 scores
# on a 2-CPU Xeon with AVX-512, depending on how many scores tie).
_STABLE_SORT_MAX = 2048


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

    @property
    def num_subvectors(self) -> int:
        return self.codebooks.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.codebooks.shape[2]


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
    :class:`BowMatrix` over the tree's leaves; ``vlads``, the ``(n, N, D)``
    raw VLAD stack (both from ``aggregate_images``), kept as an ``(n, N*D)``
    matrix plus its ranking-normalized copy, column-major ``(N*D, n)``;
    ``codes``, the packed ``(n, ceil(nbits / 8))`` uint8 code matrix
    (``encode_stack``).  ``gps`` may miss images and becomes an ``(n, 2)``
    radians matrix, NaN where an image has no fix, plus each latitude's
    cosine; ``attach_pq`` adds an ``(n, m)`` PQ code matrix.  A
    column that breaks these rules raises ``ValueError``.  The arrays are made
    read-only, and ``bows``, ``vlads``, ``codes``, ``pq_codes`` and ``gps``
    are by-id views over them.
    """

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
        rank_normalization: str = "intra-then-global-l2",
    ) -> None:
        self.tree = tree
        self.ids = tuple(ids)
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("image ids must be strictly ascending")
        n = len(self.ids)
        self.categories = dict(categories or {})
        self.rank_normalization = rank_normalization
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
        self.bows: Mapping[str, BowHistogram] = _EMPTY
        self.vlads: Mapping[str, VladVector] = _EMPTY
        self.codes: Mapping[str, BinaryCode] = _EMPTY
        self.pq_codes: Mapping[str, np.ndarray] = _EMPTY
        self.gps: Mapping[str, tuple[float, float]] = _EMPTY

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
            normalize_vlads(vlads, rank_normalization, out=columns.reshape(*shape, n).transpose(2, 0, 1))
            self._rank_columns = _readonly(columns)
            self.vlads = self._view(
                lambda r: VladVector(self._vlad_matrix[r].reshape(shape), "none")
            )
        if codes is not None:
            if nbits is None or codes.shape[1:] != ((nbits + 7) // 8,):
                raise ValueError(f"codes of shape {codes.shape} do not pack {nbits} bits per row")
            _check_rows("code", len(codes), n)
            self._codes = _readonly(np.asarray(codes, dtype=np.uint8))
            self.codes = self._view(lambda r: BinaryCode(self._codes[r], nbits))
        if gps:
            unknown = [i for i in gps if i not in self._row]
            if unknown:
                raise ValueError(f"GPS given for unknown images: {unknown[:3]}")
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
        """Order every image by (score, id): rows are in id order, so the stable order."""
        order = _stable_argsort(scores)
        return Ranking._of_rows(self._ids_array, self._row, order, scores[order], degenerate)


def _stable_argsort(scores: np.ndarray) -> np.ndarray:
    """``np.argsort(scores, kind="stable")``, from numpy's unstable sort when
    there are at least ``_STABLE_SORT_MAX`` scores.

    The unstable sort (a SIMD sort where numpy has one for the host) puts
    unequal scores in order; only rows of equal scores can come out of row
    order.  Numbering the runs of equal sorted scores, one integer sort of
    ``run * n + row`` keeps every run in place and puts its rows ascending.
    ``-0.0`` and ``+0.0`` compare equal, so they share a run, as they do in
    the stable sort.  NaN equals nothing, and the sort puts NaN last, so a
    NaN score falls back to the stable sort.
    """
    n = len(scores)
    if n < max(_STABLE_SORT_MAX, 2):  # the repair reads a last score
        return np.argsort(scores, kind="stable")
    order = np.argsort(scores)
    ordered = scores[order]
    if np.isnan(ordered[-1]):
        return np.argsort(scores, kind="stable")
    tied = ordered[1:] == ordered[:-1]
    if not tied.any():
        return order
    base = np.zeros(n, dtype=np.int64)
    np.cumsum(~tied, out=base[1:])  # the run number of each sorted position
    base *= n
    keys = base + order
    keys.sort()
    keys -= base  # the runs kept their positions, so this leaves each row
    return keys


def _check_rows(column: str, rows: int, ids: int) -> None:
    if rows != ids:
        raise ValueError(f"{column} column has {rows} rows for {ids} image ids")


def build_index(
    tree: VocabularyTree,
    model: HashingModel,
    descriptors_by_id: Mapping[str, np.ndarray],
    gps: Mapping[str, tuple[float, float]] | None = None,
    categories: Mapping[str, int] | None = None,
    rank_normalization: str = "intra-then-global-l2",
) -> DatabaseIndex:
    """Index a database: its BoW, raw VLAD and binary code columns.

    The images, sorted by id, go through the tree in passes of
    ``aggregate_images`` (at most ``PASS_ROWS`` rows each, an image with more
    alone), which write the BoW CSR rows and the VLAD stack directly;
    ``encode_stack`` hashes each VLAD row.  Every column is bit-identical to
    per-image ``compute_bow``, ``compute_vlad`` and ``encode``.  An empty or
    non-finite descriptor set raises ``ValueError``.
    """
    ids = sorted(descriptors_by_id)
    bow, vlads = aggregate_images(tree, [descriptors_by_id[i] for i in ids])
    codes = encode_stack(model, vlads)
    return DatabaseIndex(tree, ids, bow, vlads, codes, model.nbits, gps, categories, rank_normalization)


def l1_histogram_distance(a: BowHistogram, b: BowHistogram) -> float:
    """L1 distance between L1-normalized sparse histograms (range [0, 2])."""
    return float(np.abs(a.l1_normalized().to_dense() - b.l1_normalized().to_dense()).sum())


def rank_bow(index: DatabaseIndex, query: BowHistogram) -> Ranking:
    """L1 ranking of L1-normalized histograms by the sum-of-min identity.

    For a query ``a`` of mass ``A`` and a stored row ``b`` of mass ``B``,
    ``|a/A - b/B|_1 = 2 - 2 * sum_i min(a_i/A, b_i/B)
    = 2 * (A*B - sum_i min(a_i*B, b_i*A)) / (A*B)``.  The last form sums over
    the words the row holds, and with integer counts every product and sum in
    it is exact, so images at equal distance score equal floats and fall back
    to the id order.  ``A`` is ``np.sum`` of the query's ``values``, which
    the histogram already holds in ascending word order, as arrays the scan
    reads without conversion.

    A term is zero unless the query holds the word, so ``min(a_w*B, b_w*A)``
    is computed only for the postings of the query's words and scattered
    into a zero array at their CSR positions.  That array equals, value for
    value, the one a dense gather over every stored entry builds, for
    integer and fractional counts alike, and one ``np.add.reduceat`` sums
    each row of it, so the scores are the same floats.
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
    terms = np.zeros(len(bow.counts))
    terms[entries] = hits
    joint = mass * bow.mass
    return index._ranking(2.0 * (joint - np.add.reduceat(terms, bow.indptr[:-1])) / joint)


def _normalized_query(index: DatabaseIndex, query: VladVector) -> np.ndarray:
    """``query`` flattened under the index's ranking normalization.

    ``ValueError`` unless its ``(N, D)`` shape is the stored VLADs': a
    query of another shape would broadcast against, or be normalized over
    other sub-vectors than, the rows it is compared with.
    """
    if index._vlad_shape is None:
        raise ValueError("index stores no VLADs")
    if query.subvectors.shape != index._vlad_shape:
        raise ValueError(
            f"query VLAD has shape {query.subvectors.shape}, index VLADs {index._vlad_shape}"
        )
    return normalize_vlad(query, index.rank_normalization).flattened()


def rank_vlad(index: DatabaseIndex, query: VladVector) -> Ranking:
    if not index.ids:
        raise ValueError("index is empty")
    q = _normalized_query(index, query)
    return index._ranking(np.sqrt(column_sq_distances(index._rank_columns, q)))


def hamming_distance(a: BinaryCode, b: BinaryCode) -> int:
    if a.nbits != b.nbits:
        raise ValueError("codes differ in length")
    return int(np.bitwise_count(np.bitwise_xor(a.packed, b.packed)).sum())


def rank_hamming(index: DatabaseIndex, query: BinaryCode) -> Ranking:
    if not index.ids:
        raise ValueError("index is empty")
    if index._codes is None:
        raise ValueError("index stores no binary codes")
    if query.nbits != index.nbits:
        raise ValueError(f"query code has {query.nbits} bits, index codes {index.nbits}")
    differing = np.bitwise_count(index._codes ^ query.packed).sum(axis=1, dtype=np.int64)
    return index._ranking(differing.astype(np.float64))


def train_pq(
    vectors: np.ndarray,
    num_subvectors: int,
    bits: int,
    seed: int = 0,
) -> PQCodebooks:
    """Fit product-quantizer codebooks (k-means per sub-vector slice) to ``(n, dim)`` rows."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n, total = vectors.shape
    if total % num_subvectors != 0:
        raise ValueError(f"{num_subvectors} sub-vectors do not divide dim {total}")
    k = 2**bits
    sub_dim = total // num_subvectors
    books = np.empty((num_subvectors, k, sub_dim), dtype=np.float64)
    for j in range(num_subvectors):
        sub = vectors[:, j * sub_dim : (j + 1) * sub_dim]
        rng = np.random.default_rng([seed, j])
        if n >= k:
            init = kmeans_pp_init(sub, k, rng)
            centers, _ = lloyd(sub, init)
        else:
            # Fewer samples than centers: every sample is a center, rest repeat.
            centers = sub[rng.integers(0, n, size=k)]
            centers[:n] = sub
        books[j] = centers
    return PQCodebooks(codebooks=books, bits=bits)


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


def attach_pq(index: DatabaseIndex, codebooks: PQCodebooks) -> None:
    """Quantize every database image's ranking-normalized VLAD.

    One ``nearest_center`` call per sub-vector over all rows, on a C-ordered
    copy of that sub-vector's columns, so each row's codes equal
    ``encode_pq`` of that row.
    """
    if index._rank_columns is None:
        raise ValueError("index stores no VLADs")
    columns = index._rank_columns
    books = codebooks.codebooks
    m, k, sub_dim = books.shape
    if m * sub_dim != len(columns):
        raise ValueError(f"codebooks cover dim {m * sub_dim}, VLADs have {len(columns)}")
    codes = np.empty((len(index.ids), m), dtype=np.uint8 if k <= 256 else np.uint16)
    for j in range(m):
        codes[:, j] = nearest_center(columns[j * sub_dim : (j + 1) * sub_dim].T.copy(), books[j])
    index.pq = codebooks
    index._pq_codes = _readonly(codes)
    index.pq_codes = index._view(codes.__getitem__)


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


def rank_adc(index: DatabaseIndex, query: VladVector) -> Ranking:
    """Asymmetric ranking: exact (normalized) query vs quantized database."""
    if index.pq is None or index._pq_codes is None:
        raise ValueError("index has no trained product quantizer")
    q = _normalized_query(index, query)
    books = index.pq.codebooks
    m, k, sub_dim = books.shape
    # Lookup-table evaluation: table[j, c] = ||q_j - center_{j,c}||^2, gathered
    # for every image at once through the flat offsets j * k + code.
    table = np.sum((books - q.reshape(m, 1, sub_dim)) ** 2, axis=2)
    gathered = table.ravel().take(index._pq_codes + np.arange(m) * k)
    return index._ranking(gathered.sum(axis=1))


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (*a, *b))
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def simulate_gps(
    true_location: tuple[float, float],
    sigma_meters: float,
    seed: int | np.random.Generator = 0,
) -> tuple[float, float]:
    """Perturb a location with independent Gaussian noise per tangent-plane axis."""
    lat, lon = true_location
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} out of range")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dy, dx = rng.normal(0.0, sigma_meters, size=2) if sigma_meters > 0 else (0.0, 0.0)
    dlat = math.degrees(dy / EARTH_RADIUS_M)
    dlon = math.degrees(dx / (EARTH_RADIUS_M * math.cos(math.radians(lat))))
    return (lat + dlat, lon + dlon)


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
