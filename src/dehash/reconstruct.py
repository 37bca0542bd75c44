"""Server-side reconstruction of BoW histograms from (approximated) VLADs.

Each coarse center owns a difference dictionary whose columns are its
sub-tree leaves minus the center itself; solving a non-negative sparse
recovery per sub-vector yields word counts.  Contextual cues (a binary
ranking, GPS, a category label) each give a boolean mask over the leaves:
the visual words that plausibly occur near the query.  The merged mask
shrinks each dictionary to its center's admitted words, which both speeds
up the solve and filters out impossible words.  A Tikhonov refinement can
additionally pull the solution toward a pseudo-histogram pooled from
top-ranked results.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .aggregate import BowHistogram, _readonly, vlad_rows
from .sparse import Dictionary, solve_nn_lasso_batch, solve_tikhonov_batch
from .vocab import VocabularyTree, subtree_leaves

if TYPE_CHECKING:
    from .retrieval import DatabaseIndex, Ranking

MIN_SUBVECTOR_NORM = 1e-8
DROP_TOL = 1e-6
COMBINE_MODES = ("union", "intersection", "intersection-fallback-union")


@dataclass(frozen=True)
class CandidateVWs:
    """The admissible words as one read-only ``(M,)`` boolean mask over the
    tree's leaves; center ``v``'s words are row ``v`` of
    ``mask.reshape(num_centers, -1)``, as the tree's pools are consecutive
    and equal.  A center with no admissible leaf is skipped.  A mask that
    does not split into ``num_centers`` equal pools raises ``ValueError``."""

    mask: np.ndarray  # (M,) bool
    num_centers: int

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 1 or self.num_centers < 1 or mask.size % self.num_centers:
            raise ValueError(f"mask must have one entry per leaf in {self.num_centers} equal pools, got {mask.shape}")
        object.__setattr__(self, "mask", _readonly(mask))

    @classmethod
    def from_leaf_ids(cls, tree: VocabularyTree, leaf_ids: Iterable[int]) -> "CandidateVWs":
        """The mask of ``leaf_ids``, given as any iterable, repeats allowed;
        an id outside ``[0, M)`` raises ``ValueError``."""
        ids = leaf_ids if isinstance(leaf_ids, np.ndarray) else np.fromiter(leaf_ids, dtype=np.int64)
        mask = np.zeros(tree.num_leaves, dtype=bool)
        if ids.size and not (0 <= ids.min() and ids.max() < mask.size):
            raise ValueError(f"leaf ids must lie in [0, {mask.size})")
        mask[ids] = True
        return cls(mask, tree.num_vlad_centers)


def build_dictionary(tree: VocabularyTree, vlad_id: int) -> Dictionary:
    """Difference dictionary for one coarse center: its sub-tree's leaves
    minus the center.  Columns for leaves that coincide with the center are
    kept; the solver leaves their coefficients at zero.
    """
    ids = subtree_leaves(tree, vlad_id)
    center = np.asarray(tree.vlad_centers[vlad_id], dtype=np.float64)
    leaves = np.asarray(tree.leaf_centers, dtype=np.float64)[ids]
    return Dictionary(columns=(leaves - center).T, column_ids=ids, vlad_id=vlad_id)


class ReconstructionContext:
    """One tree's per-center difference dictionaries and their Grams.

    Reach it through ``VocabularyTree.reconstruction_context``, so the cache
    belongs to the tree it was computed from and is built on first use, per
    center, not at index time.  A cached dictionary also keeps its classes
    of bit-equal columns, compared once per center when first asked for.

    A restricted dictionary is the slice of the cached full one at the
    positions whose leaves a candidate mask admits (the values and memory
    layout equal those of a dictionary built from just those leaves, bit
    for bit).  Its first copies (``Dictionary.first_copies``) come from the
    full dictionary's classes: where the full dictionary has no equal
    columns every column is a first copy, else a column is one when its
    class occurs at no earlier position.
    A slice gets no cached Gram: the solver forms the sliced columns' own
    ``D.T @ D``, as it would for a dictionary built afresh, rather than a
    slice of the full Gram, which can differ from it in the last bits.
    Cached arrays are read-only and a center is built under a lock, so
    solver threads may share the context.
    """

    def __init__(self, tree: VocabularyTree) -> None:
        # A proxy, not a reference: the tree holds this context.
        self._tree = weakref.proxy(tree)
        self._full: dict[int, tuple[Dictionary, np.ndarray]] = {}
        self._lock = threading.Lock()

    def full(self, vlad_id: int) -> tuple[Dictionary, np.ndarray]:
        """The center's whole difference dictionary and its Gram ``D.T @ D``."""
        with self._lock:
            entry = self._full.get(vlad_id)
            if entry is None:
                dictionary = build_dictionary(self._tree, vlad_id)
                dictionary.columns.flags.writeable = False
                gram = dictionary.columns.T @ dictionary.columns
                gram.flags.writeable = False
                entry = self._full[vlad_id] = (dictionary, gram)
        return entry

    def restricted(self, vlad_id: int, candidates: CandidateVWs) -> Dictionary:
        """The center's columns that ``candidates`` admits, sliced from the
        cached full dictionary: bit for bit the dictionary built from the
        admitted leaf ids alone."""
        full, _ = self.full(vlad_id)
        return full.take(candidates.mask[full.column_ids].nonzero()[0])


def _stored_words(index: "DatabaseIndex", image_ids: Iterable[str]) -> np.ndarray:
    """Words of the stored histograms of ``image_ids``, read from the CSR rows, repeats kept."""
    bow = index.bow
    spans = [np.empty(0, dtype=np.int32)]
    for image_id in image_ids:
        try:
            row = index.row(image_id)
        except KeyError:
            row = None
        if bow is None or row is None:
            raise ValueError(f"index has no stored histogram for {image_id!r}")
        spans.append(bow.words[bow.span(row)])
    return np.concatenate(spans)


def candidates_from_binary(index: "DatabaseIndex", binary_ranking: "Ranking", top_r: int) -> CandidateVWs:
    """Words occurring in the histograms of the top binary-ranked images."""
    if top_r < 1:
        raise ValueError("top_r must be >= 1")
    if not len(binary_ranking):
        raise ValueError("binary ranking is empty")
    top = binary_ranking.top_ids(top_r)
    return CandidateVWs.from_leaf_ids(index.tree, _stored_words(index, top))


def candidates_from_gps(
    index: "DatabaseIndex", query_gps: tuple[float, float], top_r: int
) -> CandidateVWs:
    """Words of the geographically nearest database images."""
    from .retrieval import rank_gps

    if top_r < 1:
        raise ValueError("top_r must be >= 1")
    if query_gps is None:
        raise ValueError("query carries no GPS")
    ranking = rank_gps(index, query_gps)
    nearest = ranking.top_ids(top_r)
    return CandidateVWs.from_leaf_ids(index.tree, _stored_words(index, nearest))


def candidates_from_category(index: "DatabaseIndex", category: int) -> CandidateVWs:
    """Words occurring anywhere in the given category: the stored entries of
    the rows whose category column equals ``category``."""
    members = index._categories == category if index._categories is not None else None
    if members is None or not members.any():
        raise ValueError(f"no database image has category {category}")
    bow = index.bow
    if bow is None:
        raise ValueError("index stores no BoW histograms")
    return CandidateVWs.from_leaf_ids(index.tree, bow.words[members.repeat(np.diff(bow.indptr))])


def combine_candidates(cues: Sequence[CandidateVWs], mode: str = "union") -> CandidateVWs:
    """Merge the cues' masks: ``union`` keeps a word any cue admits and
    ``intersection`` one that every cue admits.

    ``intersection-fallback-union`` intersects but falls back to the union for
    centers where the cues have no common word, so a disagreement between cues
    never silently discards a sub-vector.
    """
    if not cues:
        raise ValueError("at least one cue required")
    if mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {mode!r}")
    first = cues[0]
    if any(c.num_centers != first.num_centers for c in cues):
        raise ValueError("cues disagree on the number of centers")
    if any(c.mask.shape != first.mask.shape for c in cues):
        raise ValueError("cues disagree on the number of leaves")
    masks = np.array([c.mask for c in cues])
    merged = masks.any(axis=0) if mode == "union" else masks.all(axis=0)
    if mode == "intersection-fallback-union":
        pools = merged.reshape(first.num_centers, -1)  # a view: writes go to merged
        empty = ~pools.any(axis=1)
        pools[empty] = masks.any(axis=0).reshape(pools.shape)[empty]
    return CandidateVWs(merged, first.num_centers)


@dataclass
class SubvectorReport:
    vlad_id: int
    columns: int
    sweeps: int
    converged: bool
    skipped: bool


@dataclass
class ReconstructionResult:
    histogram: BowHistogram
    reports: list[SubvectorReport]


def _active_centers(v: np.ndarray) -> np.ndarray:
    norms = np.sqrt((v * v).sum(axis=1))
    return (norms >= MIN_SUBVECTOR_NORM).nonzero()[0]


def _kept(
    words: list[np.ndarray], values: list[np.ndarray], floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """The per-center pieces joined in center order, keeping values above
    ``floor``.  Centers come in ascending order, each with an ascending slice
    of its consecutive pool, so the words ascend."""
    words, values = np.concatenate(words), np.concatenate(values)
    kept = values > floor
    return words[kept], values[kept]


def reconstruct_bow(
    v: np.ndarray,
    tree: VocabularyTree,
    lam: float,
    candidates: CandidateVWs | None = None,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> ReconstructionResult:
    """Recover a word histogram from a raw-space ``(N, D)`` VLAD.

    One non-negative sparse solve per active sub-vector (sub-vectors with
    negligible norm received no features and are skipped).  ``candidates``
    restricts each center's dictionary to its admissible leaves; a center
    with none is skipped.  Coefficients below a small drop tolerance are
    discarded.
    """
    v = vlad_rows(v, (tree.num_vlad_centers, tree.dim))
    context = tree.reconstruction_context
    solved: list[tuple[int, Dictionary | None]] = []
    problems = []
    for center in _active_centers(v).tolist():
        if candidates is None:
            dictionary, gram = context.full(center)
        else:
            dictionary, gram = context.restricted(center, candidates), None
        solved.append((center, dictionary if dictionary.width else None))
        if dictionary.width:
            problems.append((dictionary, v[center], gram))
    results = iter(solve_nn_lasso_batch(problems, lam, tol=tol, max_iter=max_iter))

    words, values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    reports: list[SubvectorReport] = []
    for center, dictionary in solved:
        if dictionary is None:
            reports.append(SubvectorReport(center, 0, 0, True, True))
            continue
        result = next(results)
        reports.append(
            SubvectorReport(center, dictionary.width, result.sweeps, result.converged, False)
        )
        words.append(dictionary.column_ids)
        values.append(result.coeffs)
    return ReconstructionResult(BowHistogram(*_kept(words, values, DROP_TOL), tree.num_leaves), reports)


def pseudo_bow(index: "DatabaseIndex", ranking: "Ranking", top_r: int = 5) -> BowHistogram:
    """Mean of the L1-normalized histograms of the top-ranked images.

    One ``np.bincount`` over the chosen CSR rows, read in rank order: each
    word's weights ``count / mass / k`` are added to 0.0 one image at a time,
    best first.
    """
    if top_r < 1:
        raise ValueError("top_r must be >= 1")
    if not len(ranking):
        raise ValueError("ranking is empty")
    bow = index.bow
    if bow is None:
        raise ValueError("index stores no BoW histograms")
    rows = [index.row(image_id) for image_id in ranking.top_ids(top_r)]
    spans = [bow.span(row) for row in rows]
    words = np.concatenate([bow.words[s] for s in spans])
    weights = np.concatenate([bow.counts[s] / bow.mass[row] for s, row in zip(spans, rows)])
    dense = np.bincount(words, weights / len(rows), minlength=bow.vocab_size)
    support = np.flatnonzero(dense)
    return BowHistogram(support, dense[support], bow.vocab_size)


def reconstruct_bow_with_prior(
    v: np.ndarray,
    tree: VocabularyTree,
    h0: BowHistogram,
    alpha: float,
    candidates: CandidateVWs | None = None,
    mass: float | None = None,
) -> ReconstructionResult:
    """Prior-anchored reconstruction via per-center closed-form solves, whose
    systems go through one stacked LAPACK call.

    The prior is first rescaled to ``mass`` (the estimated feature count,
    defaulting to ``||h0||_1``) so the blend mixes quantities on the count
    scale regardless of how the prior was normalized; each center reads its
    part of the prior from that one dense vector.  The candidate mask (every
    leaf when there is none) is widened by the prior's support, the per-center
    systems share the global normalizers ``||v||^2`` and ``||h0||^2`` (the
    centers partition one joint problem; ``||h0||^2`` is summed in ascending
    word order), negative coefficients are clipped, and the result is
    rescaled to ``mass`` (its total summed center by center) before being
    floored to integer counts.
    """
    v = vlad_rows(v, (tree.num_vlad_centers, tree.dim))
    if not h0.num_words:
        raise ValueError("prior histogram is empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    n1 = float(np.sum(v * v))
    if n1 <= 0:
        raise ValueError("zero VLAD")
    if mass is None:
        mass = h0.total()
    scaled = h0.values * (mass / h0.total())
    n2 = float(sum((scaled * scaled).tolist()))
    prior = np.zeros(tree.num_leaves)
    prior[h0.words] = scaled
    mask = np.ones(tree.num_leaves, dtype=bool) if candidates is None else candidates.mask.copy()
    mask[h0.words] = True
    admissible = CandidateVWs(mask, tree.num_vlad_centers)

    context = tree.reconstruction_context
    solved: list[tuple[int, Dictionary | None]] = []
    problems = []
    for center in _active_centers(v).tolist():
        dictionary = context.restricted(center, admissible)
        solved.append((center, dictionary if dictionary.width else None))
        if dictionary.width:
            problems.append((dictionary, v[center], prior[dictionary.column_ids]))
    results = iter(solve_tikhonov_batch(problems, alpha, n1=n1, n2=n2))

    words, raw = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    reports: list[SubvectorReport] = []
    for center, dictionary in solved:
        if dictionary is None:
            reports.append(SubvectorReport(center, 0, 0, True, True))
            continue
        reports.append(SubvectorReport(center, dictionary.width, 1, True, False))
        words.append(dictionary.column_ids)
        raw.append(next(results))

    histogram = BowHistogram(*_kept(words, raw, 0.0), tree.num_leaves)
    total = histogram.total()
    if total > 0:  # else no coefficient was kept and the histogram is empty
        # The epsilon keeps count-valued solutions from flooring through an
        # exact integer on float roundoff.
        floored = np.floor(histogram.values * (mass / total) + 1e-9)
        kept = floored > 0
        histogram = BowHistogram(histogram.words[kept], floored[kept], tree.num_leaves)
    return ReconstructionResult(histogram, reports)
