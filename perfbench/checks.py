"""Output checks: ranking structure, and independent numpy oracles per scorer.

Every ranking must list every database image except the query exactly once,
ordered by (score, id).  Its scores must match a dense numpy restatement of
the scorer that produced it:

* ``bow``: L1 distance between L1-normalised dense histograms (abs 1e-12),
  with the columns where the query is zero folded into a row sum;
* ``hamming``: XOR-popcount over ``BinaryCode.packed`` (exact);
* ``vlad``: L2 distance between ``normalize_vlad`` outputs (abs 1e-12);
* ``adc``: sum of look-up-table entries over the PQ codes (abs 1e-12);
* ``gps``: vectorised haversine (abs 1e-6 m).

Each check returns ``None`` when the ranking passes, else a message.
"""

from __future__ import annotations

import numpy as np

from dehash.aggregate import normalize_vlad
from dehash.retrieval import EARTH_RADIUS_M, DatabaseIndex, Ranking

TOLERANCE = {"bow": 1e-12, "hamming": 0.0, "vlad": 1e-12, "adc": 1e-12, "gps": 1e-6}


class Checker:
    """Oracle tables built once from the index, rows in ascending-id order."""

    def __init__(self, index: DatabaseIndex) -> None:
        self.index = index
        self.sorted_ids = sorted(index.ids)
        self.pos = {image_id: k for k, image_id in enumerate(self.sorted_ids)}
        self._tables: dict[str, object] = {}

    def _table(self, kind: str):
        if kind not in self._tables:
            ids, index = self.sorted_ids, self.index
            if kind == "bow":
                dense = np.stack([index.bows[i].to_dense() for i in ids])
                dense /= dense.sum(axis=1, keepdims=True)
                table = (dense, dense.sum(axis=1))
            elif kind == "hamming":
                table = np.stack([index.codes[i].packed for i in ids])
            elif kind == "vlad":
                table = np.stack(
                    [normalize_vlad(index.vlads[i], index.rank_normalization).flattened() for i in ids]
                )
            elif kind == "adc":
                table = np.stack([index.pq_codes[i] for i in ids]).astype(np.int64)
            else:
                table = np.radians(np.array([index.gps[i] for i in ids], dtype=np.float64))
            self._tables[kind] = table
        return self._tables[kind]

    def oracle_scores(self, kind: str, query) -> np.ndarray:
        """Expected score of every database image, in ascending-id order."""
        table = self._table(kind)
        if kind == "bow":
            if not query.counts:
                return np.full(len(self.sorted_ids), 2.0)  # the flagged empty-query ranking
            dense, row_sums = table
            words = np.fromiter(query.counts, dtype=np.int64, count=len(query.counts))
            q = np.fromiter(query.counts.values(), dtype=np.float64, count=len(query.counts))
            cols = dense[:, words]
            # sum_j |d_j - q_j| = sum_j d_j - sum_{q_j > 0} d_j + sum_{q_j > 0} |d_j - q_j|
            return row_sums - cols.sum(axis=1) + np.abs(cols - q / q.sum()).sum(axis=1)
        if kind == "hamming":
            return np.unpackbits(table ^ query.packed, axis=1).sum(axis=1).astype(np.float64)
        if kind == "vlad":
            q = normalize_vlad(query, self.index.rank_normalization).flattened()
            return np.sqrt(((table - q) ** 2).sum(axis=1))
        if kind == "adc":
            q = normalize_vlad(query, self.index.rank_normalization).flattened()
            books = self.index.pq.codebooks
            m, _, sub_dim = books.shape
            lut = ((books - q.reshape(m, 1, sub_dim)) ** 2).sum(axis=2)
            return lut[np.arange(m), table].sum(axis=1)
        lat, lon = np.radians(query[0]), np.radians(query[1])
        s = (
            np.sin((table[:, 0] - lat) / 2) ** 2
            + np.cos(lat) * np.cos(table[:, 0]) * np.sin((table[:, 1] - lon) / 2) ** 2
        )
        return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))

    def check(self, ranking: Ranking, qid: str, kind: str, query) -> str | None:
        """Structure first, then the scores against the oracle."""
        n = len(self.sorted_ids)
        entries = ranking.entries
        if len(entries) != n - 1:
            return f"{len(entries)} entries, expected {n - 1}"
        try:
            at = np.fromiter((self.pos[i] for i, _ in entries), dtype=np.int64, count=n - 1)
        except KeyError as exc:
            return f"unknown image id {exc}"
        scores = np.fromiter((s for _, s in entries), dtype=np.float64, count=n - 1)
        seen = np.bincount(at, minlength=n)
        if seen[self.pos[qid]]:
            return "lists the query image"
        if np.any(seen > 1):
            return f"lists {self.sorted_ids[int(np.argmax(seen))]} more than once"
        ordered = (scores[1:] > scores[:-1]) | ((scores[1:] == scores[:-1]) & (at[1:] > at[:-1]))
        if not np.all(ordered):
            return f"out of (score, id) order at rank {int(np.argmin(ordered)) + 2}"
        within = np.abs(scores - self.oracle_scores(kind, query)[at]) <= TOLERANCE[kind]
        if not np.all(within):  # a NaN score fails too
            bad = int(np.argmin(within))
            return f"{kind} score {float(scores[bad])!r} at rank {bad + 1} disagrees with the oracle"
        return None
