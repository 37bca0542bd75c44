"""Frozen dict-based CADS candidates: the reference the leaf-mask
``CandidateVWs`` and ``combine_candidates`` must match.

This is the ``{center: frozenset}`` ``CandidateVWs`` (its ``from_leaf_ids``
grouping included) and the per-center ``combine_candidates`` loop that
``dehash.reconstruct`` shipped before candidates became one boolean mask over
the leaves, kept unchanged so the tests can require the same admissible
words per center.  Do not edit it to follow the production code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from dehash.vocab import VocabularyTree

COMBINE_MODES = ("union", "intersection", "intersection-fallback-union")


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
        """Group distinct leaf ids by coarse center, with array sorts rather than a per-leaf loop."""
        if not isinstance(leaf_ids, np.ndarray):
            leaf_ids = np.fromiter(leaf_ids, dtype=np.int64)
        leaves = np.unique(leaf_ids.astype(np.int64, copy=False))
        parents = tree.parent_of_leaf[leaves]
        order = np.argsort(parents, kind="stable")
        grouped = leaves[order].tolist()
        centers, starts = np.unique(parents[order], return_index=True)
        bounds = starts.tolist() + [len(grouped)]
        return cls(
            {c: frozenset(grouped[b:e]) for c, b, e in zip(centers.tolist(), bounds, bounds[1:])},
            tree.num_vlad_centers,
        )


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
