"""Frozen eager-tuple rankings and metrics: the reference the array rankings must match.

This is the tuple-of-``(image_id, score)`` ``Ranking`` and the metric loops
``dehash.retrieval`` shipped before rankings became arrays, plus the tuple
building of ``DatabaseIndex._ranking``, kept unchanged so the property tests
can require identical entries, positions and metric floats.  Do not edit it
to follow the production code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np


@dataclass
class Ranking:
    """Result list, best first: (image_id, score) with the mode's score convention."""

    entries: tuple[tuple[str, float], ...]
    degenerate: bool = False  # set when the query was empty and order is by id only

    def ids(self) -> list[str]:
        return [image_id for image_id, _ in self.entries]

    def position(self, image_id: str) -> int:
        """1-based rank of an image; raises if absent."""
        for rank, (candidate, _) in enumerate(self.entries, start=1):
            if candidate == image_id:
                return rank
        raise ValueError(f"{image_id!r} not present in ranking")

    def drop(self, image_id: str) -> "Ranking":
        return Ranking(
            tuple(e for e in self.entries if e[0] != image_id), degenerate=self.degenerate
        )


def index_ranking(ids: tuple[str, ...], scores: np.ndarray, degenerate: bool = False) -> Ranking:
    """``DatabaseIndex._ranking`` over ascending ``ids``: a stable sort of the scores."""
    order = np.argsort(scores, kind="stable")
    entries = zip(np.array(ids, dtype=object)[order].tolist(), scores[order].tolist())
    return Ranking(tuple(entries), degenerate=degenerate)


def average_precision(ranking: Ranking, relevant: set[str]) -> float:
    if not relevant:
        raise ValueError("query has no relevant images")
    hits = 0
    cum = 0.0
    for rank, (image_id, _) in enumerate(ranking.entries, start=1):
        if image_id in relevant:
            hits += 1
            cum += hits / rank
    return cum / len(relevant)


def recall_at(rankings: Mapping[str, Ranking], reference: Mapping[str, str], n: int) -> float:
    """Fraction of queries whose single reference image appears in the top n."""
    if not rankings:
        raise ValueError("no queries")
    hits = sum(
        1 for q, r in rankings.items() if reference[q] in [i for i, _ in r.entries[:n]]
    )
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
