"""Server-side reconstruction of BoW histograms from (approximated) VLADs.

Each coarse center owns a difference dictionary whose columns are its
sub-tree leaves minus the center itself; solving a non-negative sparse
recovery per sub-vector yields word counts.  Contextual cues (a binary
ranking, GPS, a category label) shrink each dictionary to the visual words
that plausibly occur near the query, which both speeds up the solve and
filters out impossible words.  A Tikhonov refinement can additionally pull
the solution toward a pseudo-histogram pooled from top-ranked results.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .aggregate import BowHistogram, VladVector
from .sparse import Dictionary, solve_nn_lasso, solve_tikhonov
from .vocab import VocabularyTree, subtree_leaves

if TYPE_CHECKING:
    from .retrieval import DatabaseIndex, Ranking

MIN_SUBVECTOR_NORM = 1e-8
DROP_TOL = 1e-6
COMBINE_MODES = ("union", "intersection", "intersection-fallback-union")


@dataclass(frozen=True)
class ContextTag:
    """Contextual cues accompanying a transmitted code."""

    gps: tuple[float, float] | None = None  # (lat, lon) degrees
    category: int | None = None


@dataclass(frozen=True)
class CandidateVWs:
    """Admissible leaf ids per coarse center; an empty set skips that center."""

    per_center: dict[int, frozenset[int]]
    num_centers: int

    def __post_init__(self) -> None:
        for center in self.per_center:
            if not 0 <= center < self.num_centers:
                raise ValueError(f"center id {center} out of range")

    def allowed(self, center: int) -> frozenset[int]:
        return self.per_center.get(center, frozenset())

    def total_width(self) -> int:
        return sum(len(s) for s in self.per_center.values())

    @classmethod
    def from_leaf_ids(cls, tree: VocabularyTree, leaf_ids: Iterable[int]) -> "CandidateVWs":
        grouped: dict[int, set[int]] = {}
        for leaf in leaf_ids:
            grouped.setdefault(int(tree.parent_of_leaf[leaf]), set()).add(int(leaf))
        return cls(
            {c: frozenset(s) for c, s in grouped.items()},
            tree.num_vlad_centers,
        )


def build_dictionary(
    tree: VocabularyTree,
    vlad_id: int,
    restrict: Iterable[int] | None = None,
) -> Dictionary:
    """Difference dictionary for one coarse center.

    ``restrict`` narrows the columns to the given leaf ids (all must belong to
    the center's sub-tree).  Columns for leaves that coincide with the center
    are kept; the solver leaves their coefficients at zero.
    """
    ids = subtree_leaves(tree, vlad_id)
    if restrict is not None:
        wanted = np.asarray(sorted(set(int(i) for i in restrict)), dtype=np.int64)
        if wanted.size and not np.all(np.isin(wanted, ids)):
            raise ValueError(f"restriction contains leaves outside sub-tree of center {vlad_id}")
        ids = wanted
    center = np.asarray(tree.vlad_centers[vlad_id], dtype=np.float64)
    leaves = np.asarray(tree.leaf_centers, dtype=np.float64)[ids]
    return Dictionary(columns=(leaves - center).T, column_ids=ids, vlad_id=vlad_id)


class ReconstructionContext:
    """One tree's per-center difference dictionaries and their Grams.

    Reach it through ``VocabularyTree.reconstruction_context``, so the cache
    belongs to the tree it was computed from and is built on first use, per
    center, not at index time.  A restricted dictionary slices its columns
    from the cached full one (the values equal ``build_dictionary``'s bit for
    bit) but gets no cached Gram: a slice of the full Gram can differ from the
    sliced columns' own ``D.T @ D`` in the last bits, and the solve path
    follows those bits.  Cached arrays are read-only and a center is built
    under a lock, so solver threads may share the context.
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

    def restricted(self, vlad_id: int, restrict: Iterable[int]) -> Dictionary:
        """``build_dictionary(tree, vlad_id, restrict)``, sliced from the cache."""
        full, _ = self.full(vlad_id)
        wanted = np.asarray(sorted(set(int(i) for i in restrict)), dtype=np.int64)
        pos = np.searchsorted(full.column_ids, wanted)
        if not (np.all(pos < full.width) and np.array_equal(full.column_ids[pos], wanted)):
            raise ValueError(f"restriction contains leaves outside sub-tree of center {vlad_id}")
        # Rows of the (T, dim) transpose, transposed back: the same memory
        # layout as a freshly built dictionary, so products round the same.
        rows = full.columns.T[pos]
        return Dictionary(columns=rows.T, column_ids=wanted, vlad_id=vlad_id)


def _stored_words(index: "DatabaseIndex", image_ids: Iterable[str]) -> np.ndarray:
    """Distinct words of the stored histograms of ``image_ids``, read from the CSR rows."""
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
    return np.unique(np.concatenate(spans))


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
    """Words occurring anywhere in the given category."""
    members = [i for i, c in index.categories.items() if c == category]
    if not members:
        raise ValueError(f"no database image has category {category}")
    return CandidateVWs.from_leaf_ids(index.tree, _stored_words(index, members))


def combine_candidates(cues: Sequence[CandidateVWs], mode: str = "union") -> CandidateVWs:
    """Merge cue candidate sets per center.

    ``intersection-fallback-union`` intersects but falls back to the union for
    centers where the cues have no common word, so a disagreement between cues
    never silently discards a sub-vector.
    """
    if not cues:
        raise ValueError("at least one cue required")
    if mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {mode!r}")
    num_centers = cues[0].num_centers
    if any(c.num_centers != num_centers for c in cues):
        raise ValueError("cues disagree on the number of centers")
    centers = set().union(*(c.per_center.keys() for c in cues))
    merged: dict[int, frozenset[int]] = {}
    for center in centers:
        sets = [c.allowed(center) for c in cues]
        union = frozenset().union(*sets)
        if mode == "union":
            out = union
        else:
            out = frozenset(sets[0]).intersection(*sets[1:])
            if mode == "intersection-fallback-union" and not out:
                out = union
        if out:
            merged[center] = frozenset(out)
    return CandidateVWs(merged, num_centers)


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


def _active_centers(v: VladVector) -> np.ndarray:
    norms = np.sqrt(np.sum(v.subvectors * v.subvectors, axis=1))
    return np.flatnonzero(norms >= MIN_SUBVECTOR_NORM)


def _by_word(words: list[np.ndarray], values: list[np.ndarray], vocab_size: int) -> BowHistogram:
    """One histogram from per-center pieces; centers own disjoint leaves, but
    a tree may interleave them, so the pieces are sorted once by word."""
    words, values = np.concatenate(words), np.concatenate(values)
    order = np.argsort(words, kind="stable")
    return BowHistogram(words[order], values[order], vocab_size)


def reconstruct_bow(
    v: VladVector,
    tree: VocabularyTree,
    lam: float,
    candidates: CandidateVWs | None = None,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> ReconstructionResult:
    """Recover a word histogram from a raw-space VLAD.

    One non-negative sparse solve per active sub-vector (sub-vectors with
    negligible norm received no features and are skipped).  ``candidates``
    restricts each center's dictionary; centers with an empty candidate set
    are skipped.  Coefficients below a small drop tolerance are discarded.
    The histogram's words ascend whichever way the tree numbers its leaves.
    """
    if v.num_centers != tree.num_vlad_centers:
        raise ValueError("VLAD center count does not match the tree")
    words, values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    reports: list[SubvectorReport] = []
    active = _active_centers(v)
    context = tree.reconstruction_context

    for center in active.tolist():
        allowed = None if candidates is None else candidates.allowed(center)
        if allowed is None:
            dictionary, gram = context.full(center)
        elif allowed:
            dictionary, gram = context.restricted(center, allowed), None
        else:
            dictionary = None
        if dictionary is None or dictionary.width == 0:
            reports.append(SubvectorReport(center, 0, 0, True, True))
            continue
        result = solve_nn_lasso(
            dictionary, v.subvectors[center], lam, tol=tol, max_iter=max_iter, gram=gram
        )
        reports.append(
            SubvectorReport(center, dictionary.width, result.sweeps, result.converged, False)
        )
        kept = result.coeffs > DROP_TOL
        words.append(dictionary.column_ids[kept])
        values.append(result.coeffs[kept])
    return ReconstructionResult(_by_word(words, values, tree.num_leaves), reports)


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
    v: VladVector,
    tree: VocabularyTree,
    h0: BowHistogram,
    alpha: float,
    candidates: CandidateVWs | None = None,
    mass: float | None = None,
) -> ReconstructionResult:
    """Prior-anchored reconstruction via per-center closed-form solves.

    The prior is first rescaled to ``mass`` (the estimated feature count,
    defaulting to ``||h0||_1``) so the blend mixes quantities on the count
    scale regardless of how the prior was normalized; each center reads its
    part of the prior from that one dense vector.  The candidate set of each
    active center is widened by the prior's support there, the per-center
    systems share the global normalizers ``||v||^2`` and ``||h0||^2`` (the
    centers partition one joint problem; ``||h0||^2`` is summed in ascending
    word order), negative coefficients are clipped, and the result is
    rescaled to ``mass`` (its total summed center by center) before being
    floored to integer counts.
    """
    if v.num_centers != tree.num_vlad_centers:
        raise ValueError("VLAD center count does not match the tree")
    if not h0.num_words:
        raise ValueError("prior histogram is empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    n1 = float(np.sum(v.subvectors * v.subvectors))
    if n1 <= 0:
        raise ValueError("zero VLAD")
    if mass is None:
        mass = h0.total()
    scaled = h0.values * (mass / h0.total())
    n2 = float(sum((scaled * scaled).tolist()))
    prior = np.zeros(tree.num_leaves)
    prior[h0.words] = scaled
    prior_parent = tree.parent_of_leaf[h0.words]

    words, raw = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    reports: list[SubvectorReport] = []
    context = tree.reconstruction_context
    for center in _active_centers(v).tolist():
        if candidates is not None:
            allowed = set(candidates.allowed(center))
        else:
            allowed = set(subtree_leaves(tree, center).tolist())
        allowed.update(h0.words[prior_parent == center].tolist())
        if not allowed:
            reports.append(SubvectorReport(center, 0, 0, True, True))
            continue
        dictionary = context.restricted(center, allowed)
        coeffs = solve_tikhonov(
            dictionary, v.subvectors[center], prior[dictionary.column_ids], alpha, n1=n1, n2=n2
        )
        reports.append(SubvectorReport(center, dictionary.width, 1, True, False))
        kept = coeffs > 0.0
        words.append(dictionary.column_ids[kept])
        raw.append(coeffs[kept])

    histogram = _by_word(words, raw, tree.num_leaves)
    total = sum(np.concatenate(raw).tolist())
    if total > 0:  # else no coefficient was kept and the histogram is empty
        # The epsilon keeps count-valued solutions from flooring through an
        # exact integer on float roundoff.
        floored = np.floor(histogram.values * (mass / total) + 1e-9)
        kept = floored > 0
        histogram = BowHistogram(histogram.words[kept], floored[kept], tree.num_leaves)
    return ReconstructionResult(histogram, reports)
