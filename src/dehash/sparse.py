"""Solvers for coefficient recovery over difference dictionaries.

Two routes from a residual sub-vector back to word counts:

* :func:`solve_nn_lasso` - non-negative L1-regularized least squares,
  minimizing ``||v - D h||_2^2 + lam * ||h||_1`` over ``h >= 0``.  Note the
  quadratic term carries no 1/2 factor, so the per-coordinate threshold is
  ``lam / 2`` for a unit-norm column; regularization weights are calibrated
  to this convention.  The solver follows the exact piecewise-linear
  solution path in ``lam`` (homotopy, as in LARS); vocabulary dictionaries
  are far too coherent for plain coordinate descent, which stalls swapping
  mass between near-parallel columns at small ``lam``.  Each path event
  costs one small linear solve and a fixed number of vectorized operations
  over the dictionary's columns.  Callers that solve against the same
  dictionary many times pass its Gram matrix ``D.T @ D`` precomputed.
* :func:`solve_tikhonov` - closed-form L2-regularized solve against a prior,
  evaluated through a (dim x dim) system rather than the (T x T) normal
  equations, so cost scales with the feature dimension and not the
  vocabulary width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LASSO_TOL = 1e-6
LASSO_MAX_ITER = 1000


@dataclass(frozen=True)
class Dictionary:
    """Per-center difference dictionary: column t = leaf_center_t - vlad_center."""

    columns: np.ndarray  # (dim, T) float64
    column_ids: np.ndarray  # (T,) int64, leaf ids aligned with columns
    vlad_id: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", np.asarray(self.columns, dtype=np.float64))
        object.__setattr__(self, "column_ids", np.asarray(self.column_ids, dtype=np.int64))
        if self.columns.ndim != 2:
            raise ValueError("columns must be a (dim, T) matrix")
        if self.columns.shape[1] != self.column_ids.shape[0]:
            raise ValueError("one id per column required")
        if np.unique(self.column_ids).size != self.column_ids.size:
            raise ValueError("duplicate column ids")

    @property
    def width(self) -> int:
        return self.columns.shape[1]

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    def zero_column_mask(self) -> np.ndarray:
        """Columns whose leaf coincides with the coarse center (unrecoverable)."""
        return ~np.any(self.columns != 0.0, axis=0)


@dataclass
class LassoResult:
    coeffs: np.ndarray  # (T,) non-negative
    converged: bool
    sweeps: int
    objective: float


def lasso_objective(dictionary: Dictionary, v: np.ndarray, lam: float, h: np.ndarray) -> float:
    r = v - dictionary.columns @ h
    return float(r @ r + lam * np.sum(h))


def _validate_lasso_inputs(dictionary: Dictionary, v: np.ndarray, lam: float) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dictionary.dim,):
        raise ValueError(f"v must have shape ({dictionary.dim},)")
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(dictionary.columns)):
        raise ValueError("inputs must be finite")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return v


def _segment_solution(gram, corr, active):
    """Per-segment path coefficients: h_A(lam) = a - lam * b on the active set."""
    g = gram[active[:, None], active]
    rhs = np.empty((active.size, 2))
    rhs[:, 0] = corr[active]
    rhs[:, 1] = 0.5
    try:
        sol = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(g, rhs, rcond=None)
    return sol[:, 0], sol[:, 1]


def _homotopy_nn_lasso(
    dictionary: Dictionary,
    v: np.ndarray,
    lam: float,
    tol: float,
    max_iter: int,
    gram: np.ndarray | None,
) -> LassoResult:
    """Exact regularization-path solve, from the all-zero end down to ``lam``.

    The optimum is piecewise linear in the weight: on each segment the active
    coefficients follow ``a - lam * b``.  Walking segment events (a
    coefficient hitting zero, or an inactive correlation catching up with the
    threshold) keeps every iterate exactly optimal for its own weight, which
    is what coherent, overcomplete dictionaries need.

    Each event costs one linear solve on the active block of the Gram matrix
    (``gram``, or ``D.T @ D`` computed here) and a fixed handful of array
    operations: the weights at which every active coefficient would reach
    zero and every live inactive column would enter are computed as one
    vector, and the next event is its first maximum, with deletions in
    active order ahead of insertions in ascending column order.  ``active``
    keeps insertion order, because the order of the Gram block sets the
    rounding of the solve.
    """
    cols = dictionary.columns
    width = dictionary.width
    corr = cols.T @ v
    scale = max(1.0, float(np.max(np.abs(corr)) if width else 1.0))
    event_tol = 1e-12 * scale

    h = np.zeros(width, dtype=np.float64)
    lam_cur = 2.0 * float(np.max(corr)) if width else 0.0
    if width == 0 or lam >= lam_cur:
        return LassoResult(h, True, 0, lasso_objective(dictionary, v, lam, h))

    if gram is None:
        gram = cols.T @ cols
    live = np.diag(gram) > 0.0  # zero columns never enter
    active = np.array([np.argmax(corr)], dtype=np.intp)
    in_active = np.zeros(width, dtype=bool)
    in_active[active] = True
    events = 0
    converged = False
    # The iterate is written once, when the walk stops: (support, a, b,
    # weight) of the segment it stopped on.
    stop = None

    while events < max_iter:
        events += 1
        a, b = _segment_solution(gram, corr, active)
        inactive = (live & ~in_active).nonzero()[0]
        cross = gram[inactive[:, None], active]
        # Deletion events: an active coefficient dropping to zero (it shrinks
        # as the weight decreases exactly when b < 0).  Insertion events: an
        # inactive correlation reaching the threshold.
        num = np.concatenate((a, 2.0 * (corr[inactive] - cross @ a)))
        den = np.concatenate((b, 1.0 - 2.0 * (cross @ b)))
        ok = den > 1e-15
        ok[: active.size] = b < -1e-15
        lam_all = np.divide(num, den, out=np.full(num.size, -np.inf), where=ok)
        lam_all[~((lam + event_tol < lam_all) & (lam_all < lam_cur - event_tol))] = -np.inf
        pick = int(lam_all.argmax())
        if lam_all[pick] == -np.inf:
            stop = (active, a, b, lam)
            converged = True
            break

        lam_cur = float(lam_all[pick])
        # The iterate at this event, kept in case the event cap hits.
        stop = (active, a, b, lam_cur)
        if pick < active.size:
            # Never the last active column: alone it has b = 0.5 / ||d||^2 >= 0,
            # so it never shrinks and the active set never empties.
            in_active[active[pick]] = False
            active = np.delete(active, pick)
        else:
            t = inactive[pick - active.size]
            active = np.concatenate((active, [t]))
            in_active[t] = True

    if stop is not None:
        support, a, b, at = stop
        h[support] = np.clip(a - at * b, 0.0, None)
    stationarity, violation = lasso_kkt_residuals(dictionary, v, lam, h)
    kkt_tol = max(tol, 1e-7 * scale)
    converged = converged and stationarity <= kkt_tol and violation <= kkt_tol
    return LassoResult(h, converged, events, lasso_objective(dictionary, v, lam, h))


def solve_nn_lasso(
    dictionary: Dictionary,
    v: np.ndarray,
    lam: float,
    tol: float = LASSO_TOL,
    max_iter: int = LASSO_MAX_ITER,
    gram: np.ndarray | None = None,
) -> LassoResult:
    """Minimize ``||v - D h||^2 + lam * sum(h)`` over ``h >= 0``.

    Walks the exact solution path; ``max_iter`` caps the path events, and the
    iterate at the last event is returned with ``converged=False`` when the
    cap is hit first.  ``gram`` may carry a precomputed ``D.T @ D`` for
    dictionaries solved repeatedly; it must be computed from these exact
    columns, since the path's rounding follows it.
    """
    v = _validate_lasso_inputs(dictionary, v, lam)
    if gram is not None and gram.shape != (dictionary.width, dictionary.width):
        raise ValueError(f"gram must have shape ({dictionary.width}, {dictionary.width})")
    return _homotopy_nn_lasso(dictionary, v, lam, tol, max_iter, gram)


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
    """Closed-form solve of the prior-anchored least-squares blend.

    Minimizes ``alpha * ||v - D h||^2 / n1 + (1 - alpha) * ||h - h0||^2 / n2``
    where the normalizers default to ``||v||^2`` and ``||h0||^2``.  With
    ``a1 = alpha/n1`` and ``a2 = (1-alpha)/n2`` the unique solution is

        h* = a1 * D^T (a1 D D^T + a2 I)^{-1} (v - D h0) + h0

    which only ever inverts a (dim x dim) matrix.  Callers solving several
    blocks of one larger problem can pass shared ``n1``/``n2``.
    """
    v = np.asarray(v, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    if v.shape != (dictionary.dim,):
        raise ValueError(f"v must have shape ({dictionary.dim},)")
    if h0.shape != (dictionary.width,):
        raise ValueError(f"h0 must have shape ({dictionary.width},)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if n1 is None:
        n1 = float(v @ v)
    if n2 is None:
        n2 = float(h0 @ h0)
    if n1 <= 0 or n2 <= 0:
        raise ValueError("normalizers must be positive (zero v or h0)")

    a1 = alpha / n1
    a2 = (1.0 - alpha) / n2
    cols = dictionary.columns
    system = a1 * (cols @ cols.T) + a2 * np.eye(dictionary.dim)
    z = np.linalg.solve(system, v - cols @ h0)
    return a1 * (cols.T @ z) + h0
