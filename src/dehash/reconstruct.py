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

    def mean_width(self) -> float:
        return self.total_width() / self.num_centers

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
    spans = []
    for image_id in image_ids:
        if bow is None or image_id not in index.bows:
            raise ValueError(f"index has no stored histogram for {image_id!r}")
        spans.append(bow.words[bow.span(index.row(image_id))])
    return np.unique(np.concatenate(spans)) if spans else np.empty(0, dtype=np.int32)


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

    @property
    def all_converged(self) -> bool:
        return all(r.converged or r.skipped for r in self.reports)


def _active_centers(v: VladVector) -> np.ndarray:
    norms = np.sqrt(np.sum(v.subvectors * v.subvectors, axis=1))
    return np.flatnonzero(norms >= MIN_SUBVECTOR_NORM)


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
    """
    if v.num_centers != tree.num_vlad_centers:
        raise ValueError("VLAD center count does not match the tree")
    counts: dict[int, float] = {}
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
        # Centers own disjoint leaves, so each leaf is written once.
        counts.update(zip(dictionary.column_ids[kept].tolist(), result.coeffs[kept].tolist()))
    return ReconstructionResult(BowHistogram(counts, tree.num_leaves), reports)


def pseudo_bow(index: "DatabaseIndex", ranking: "Ranking", top_r: int = 5) -> BowHistogram:
    """Mean of the L1-normalized histograms of the top-ranked images."""
    if top_r < 1:
        raise ValueError("top_r must be >= 1")
    if not len(ranking):
        raise ValueError("ranking is empty")
    bow = index.bow
    if bow is None:
        raise ValueError("index stores no BoW histograms")
    chosen = ranking.top_ids(top_r)
    counts: dict[int, float] = {}
    for image_id in chosen:
        for leaf, value in zip(*bow.normalized(index.row(image_id))):
            counts[leaf] = counts.get(leaf, 0.0) + value / len(chosen)
    return BowHistogram(counts, index.tree.num_leaves)


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
    scale regardless of how the prior was normalized.  The candidate set of
    each active center is widened by the prior's support there, the
    per-center systems share the global normalizers ``||v||^2`` and
    ``||h0||^2`` (the centers partition one joint problem), negative
    coefficients are clipped, and the result is rescaled to ``mass`` before
    being floored to integer counts.
    """
    if v.num_centers != tree.num_vlad_centers:
        raise ValueError("VLAD center count does not match the tree")
    if not h0.counts:
        raise ValueError("prior histogram is empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    n1 = float(np.sum(v.subvectors * v.subvectors))
    if n1 <= 0:
        raise ValueError("zero VLAD")
    if mass is None:
        mass = h0.total()
    prior_scale = mass / h0.total()
    dense_prior = {leaf: value * prior_scale for leaf, value in h0.counts.items()}
    n2 = float(sum(value * value for value in dense_prior.values()))

    prior_by_center: dict[int, set[int]] = {}
    for leaf in dense_prior:
        prior_by_center.setdefault(int(tree.parent_of_leaf[leaf]), set()).add(int(leaf))

    raw: dict[int, float] = {}
    reports: list[SubvectorReport] = []
    context = tree.reconstruction_context
    for center in _active_centers(v):
        center = int(center)
        allowed: set[int]
        if candidates is not None:
            allowed = set(candidates.allowed(center))
        else:
            allowed = set(int(t) for t in subtree_leaves(tree, center))
        allowed |= prior_by_center.get(center, set())
        if not allowed:
            reports.append(SubvectorReport(center, 0, 0, True, True))
            continue
        dictionary = context.restricted(center, allowed)
        h0_local = np.array(
            [dense_prior.get(int(leaf), 0.0) for leaf in dictionary.column_ids], dtype=np.float64
        )
        coeffs = solve_tikhonov(
            dictionary, v.subvectors[center], h0_local, alpha, n1=n1, n2=n2
        )
        reports.append(SubvectorReport(center, dictionary.width, 1, True, False))
        for leaf, value in zip(dictionary.column_ids, coeffs):
            if value > 0.0:
                raw[int(leaf)] = raw.get(int(leaf), 0.0) + float(value)

    total = sum(raw.values())
    counts: dict[int, float] = {}
    if total > 0:
        scale = mass / total
        for leaf, value in raw.items():
            # The epsilon keeps count-valued solutions from flooring through
            # an exact integer on float roundoff.
            floored = float(np.floor(value * scale + 1e-9))
            if floored > 0:
                counts[leaf] = floored
    return ReconstructionResult(BowHistogram(counts, tree.num_leaves), reports)
