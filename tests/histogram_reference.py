"""Frozen dict-based histogram stages: the references the array-based
``pseudo_bow`` and ``reconstruct_bow_with_prior`` must match.

These are the two functions as ``dehash.reconstruct`` shipped them while a
histogram was a ``{word: value}`` dict, kept unchanged except that they take
and return plain dicts (the prior's entries in the order ``pseudo_bow``
first saw them) so the tests can compare with ``==``, that the VLAD is
a plain ``(N, D)`` array, and that each restricted dictionary comes from
the frozen ``build_dictionary`` (``solver_reference``), whose values equal
the cached slice's.  Do not edit them to follow the production code.
"""

from __future__ import annotations

import numpy as np

from dehash.reconstruct import MIN_SUBVECTOR_NORM
from dehash.vocab import subtree_leaves

from solver_reference import admitted_leaves, build_dictionary, solve_tikhonov


def pseudo_bow(index, ranking, top_r: int = 5) -> dict[int, float]:
    """Mean of the L1-normalized histograms of the top-ranked images."""
    bow = index.bow
    chosen = ranking.top_ids(top_r)
    counts: dict[int, float] = {}
    for image_id in chosen:
        row = index.row(image_id)
        s = bow.span(row)
        for leaf, value in zip(bow.words[s].tolist(), (bow.counts[s] / bow.mass[row]).tolist()):
            counts[leaf] = counts.get(leaf, 0.0) + value / len(chosen)
    return counts


def reconstruct_bow_with_prior(v, tree, h0: dict[int, float], alpha, candidates=None, mass=None):
    """The floored prior-anchored histogram, as ``{word: count}``."""
    norms = np.sqrt(np.sum(v * v, axis=1))
    active = np.flatnonzero(norms >= MIN_SUBVECTOR_NORM)
    n1 = float(np.sum(v * v))
    h0_total = float(sum(h0.values()))
    if mass is None:
        mass = h0_total
    prior_scale = mass / h0_total
    dense_prior = {leaf: value * prior_scale for leaf, value in h0.items()}
    n2 = float(sum(value * value for value in dense_prior.values()))

    prior_by_center: dict[int, set[int]] = {}
    for leaf in dense_prior:
        prior_by_center.setdefault(int(tree.parent_of_leaf[leaf]), set()).add(int(leaf))

    raw: dict[int, float] = {}
    for center in active:
        center = int(center)
        allowed: set[int]
        if candidates is not None:
            allowed = set(admitted_leaves(candidates, center).tolist())
        else:
            allowed = set(int(t) for t in subtree_leaves(tree, center))
        allowed |= prior_by_center.get(center, set())
        if not allowed:
            continue
        dictionary = build_dictionary(tree, center, allowed)
        h0_local = np.array(
            [dense_prior.get(int(leaf), 0.0) for leaf in dictionary.column_ids], dtype=np.float64
        )
        coeffs = solve_tikhonov(
            dictionary, v[center], h0_local, alpha, n1=n1, n2=n2
        )
        for leaf, value in zip(dictionary.column_ids, coeffs):
            if value > 0.0:
                raw[int(leaf)] = raw.get(int(leaf), 0.0) + float(value)

    total = sum(raw.values())
    counts: dict[int, float] = {}
    if total > 0:
        scale = mass / total
        for leaf, value in raw.items():
            floored = float(np.floor(value * scale + 1e-9))
            if floored > 0:
                counts[leaf] = floored
    return counts
