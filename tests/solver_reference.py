"""Solver and dictionary helpers that only the tests use, frozen as
``dehash`` shipped them before they were removed from the package.

``lasso_objective`` and ``lasso_kkt_residuals`` measure a non-negative
lasso solution (its objective, and its optimality residuals, both 0 at the
optimum); ``solve_tikhonov`` is the one-problem call of
``solve_tikhonov_batch``; ``build_dictionary`` takes a ``restrict`` list of
leaf ids; ``admitted_leaves`` lists a candidate mask's admissible leaves
under one coarse center.  Do not edit them to follow the production code.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from dehash.sparse import Dictionary, solve_tikhonov_batch
from dehash.vocab import subtree_leaves


def lasso_objective(dictionary: Dictionary, v: np.ndarray, lam: float, h: np.ndarray) -> float:
    r = v - dictionary.columns @ h
    return float(r @ r + lam * np.sum(h))


def lasso_kkt_residuals(
    dictionary: Dictionary, v: np.ndarray, lam: float, h: np.ndarray
) -> tuple[float, float]:
    """Optimality residuals at h: (max |gradient| on the support,
    max violation of gradient >= 0 off the support).  Both are 0 at the optimum.
    """
    cols = dictionary.columns
    grad = -2.0 * (cols.T @ (np.asarray(v, dtype=np.float64) - cols @ h)) + lam
    active = h > 0
    stationarity = float(np.max(np.abs(grad[active]))) if active.any() else 0.0
    inactive = ~active
    violation = float(max(0.0, -np.min(grad[inactive]))) if inactive.any() else 0.0
    return stationarity, violation


def solve_tikhonov(
    dictionary: Dictionary,
    v: np.ndarray,
    h0: np.ndarray,
    alpha: float,
    n1: float | None = None,
    n2: float | None = None,
) -> np.ndarray:
    """The one-problem call of :func:`solve_tikhonov_batch`."""
    return solve_tikhonov_batch([(dictionary, v, h0)], alpha, n1, n2)[0]


def build_dictionary(tree, vlad_id: int, restrict: Iterable[int] | None = None) -> Dictionary:
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


def admitted_leaves(candidates, center: int) -> np.ndarray:
    """The center's admissible leaf ids under a ``CandidateVWs``, ascending."""
    parent = np.arange(candidates.mask.size) // (candidates.mask.size // candidates.num_centers)
    return np.flatnonzero(candidates.mask & (parent == center))
