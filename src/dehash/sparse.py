"""Solvers for coefficient recovery over difference dictionaries.

Two routes from a residual sub-vector back to word counts:

* :func:`solve_nn_lasso_batch` - non-negative L1-regularized least squares,
  minimizing ``||v - D h||_2^2 + lam * ||h||_1`` over ``h >= 0`` for several
  dictionaries and targets at once (a single problem is a batch of one).
  Note the quadratic term carries no 1/2 factor, so the per-coordinate
  threshold is ``lam / 2`` for a unit-norm column; regularization weights
  are calibrated to this convention.  The solver
  follows the exact piecewise-linear solution path in ``lam`` (homotopy, as
  in LARS); vocabulary dictionaries are far too coherent for plain
  coordinate descent, which stalls swapping mass between near-parallel
  columns at small ``lam``.  The paths of one batch advance in lockstep:
  each round costs one stacked linear solve over every running walk's
  active block and a fixed number of array operations over the batch's
  columns, so a reconstruction's numpy calls scale with its longest path,
  not with its total event count.  Callers that solve against the same
  dictionary many times pass its Gram matrix ``D.T @ D`` precomputed.
* :func:`solve_tikhonov_batch` - closed-form L2-regularized solves against a
  prior, each evaluated through a (dim x dim) system rather than the (T x T)
  normal equations, so cost scales with the feature dimension and not the
  vocabulary width; the systems share one stacked LAPACK call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

LASSO_TOL = 1e-6
LASSO_MAX_ITER = 1000


def check_lam(lam, name: str = "lam") -> None:
    """``ValueError`` naming ``name`` unless the weight ``lam`` is finite and ``>= 0``."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {lam}")


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
        ids = self.column_ids
        # Ascending ids, as every built or sliced dictionary has, are distinct.
        if ids.size > 1 and not np.all(ids[1:] > ids[:-1]) and np.unique(ids).size != ids.size:
            raise ValueError("duplicate column ids")

    @property
    def width(self) -> int:
        return self.columns.shape[1]

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @cached_property
    def _copy_classes(self) -> np.ndarray | None:
        """``(T,)`` labels shared by bit-equal columns only, or ``None`` when
        no two columns are equal."""
        if not self.dim:
            return np.zeros(self.width, dtype=np.intp)
        rows = np.ascontiguousarray(self.columns.T).view(np.dtype((np.void, 8 * self.dim)))
        distinct, labels = np.unique(rows.ravel(), return_inverse=True)
        return None if distinct.size == self.width else labels

    @cached_property
    def first_copies(self) -> np.ndarray:
        """``(T,)`` mask of the columns equal to no earlier column, bit for bit."""
        classes = self._copy_classes
        if classes is None:
            first = np.ones(self.width, dtype=bool)
        else:
            first = np.zeros(self.width, dtype=bool)
            first[np.unique(classes, return_index=True)[1]] = True
        first.flags.writeable = False
        return first

    def take(self, positions: np.ndarray) -> "Dictionary":
        """The columns at ascending ``positions``, in the memory layout of a
        dictionary built from their leaves afresh, so products round the
        same.  Equal columns stay equal, so the slice reads its copy classes
        from this dictionary's instead of comparing its columns again."""
        # Rows of the (T, dim) transpose, transposed back.
        part = Dictionary(self.columns.T[positions].T, self.column_ids[positions], self.vlad_id)
        classes = self._copy_classes
        if classes is None:
            object.__setattr__(part, "_copy_classes", None)
            # Every column is a first copy: a read-only view of this dictionary's mask.
            object.__setattr__(part, "first_copies", self.first_copies[: len(positions)])
        else:
            object.__setattr__(part, "_copy_classes", classes[positions])
        return part


@dataclass
class LassoResult:
    coeffs: np.ndarray  # (T,) non-negative
    converged: bool
    sweeps: int
    objective: float


def _solve_blocks(blocks: np.ndarray, rhs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Solve a stack of padded active blocks at once.

    A singular block (linearly dependent active columns) makes LAPACK refuse
    the whole stack; the stack is then solved block by block, and each
    singular block by least squares on its unpadded part.
    """
    try:
        return np.linalg.solve(blocks, rhs)
    except np.linalg.LinAlgError:
        sol = np.zeros_like(rhs)
        for i, k in enumerate(sizes.tolist()):
            try:
                sol[i] = np.linalg.solve(blocks[i], rhs[i])
            except np.linalg.LinAlgError:
                sol[i, :k] = np.linalg.lstsq(blocks[i, :k, :k], rhs[i, :k], rcond=None)[0]
        return sol


def solve_nn_lasso_batch(
    problems: Sequence[tuple[Dictionary, np.ndarray, np.ndarray | None]],
    lam: float,
    tol: float = LASSO_TOL,
    max_iter: int = LASSO_MAX_ITER,
) -> list[LassoResult]:
    """Solve several problems ``(dictionary, v, gram)`` at one weight ``lam``.

    Each solve is an exact regularization-path walk, from the all-zero end
    down to ``lam``.  The optimum is piecewise linear in the weight: on each
    segment the active coefficients follow ``a - lam * b``.  Walking segment
    events (a coefficient hitting zero, or an inactive correlation catching
    up with the threshold) keeps every iterate exactly optimal for its own
    weight, which is what coherent, overcomplete dictionaries need.

    All paths advance in lockstep, one event per round for every walk still
    running, so a round costs a fixed handful of array operations over the
    whole batch.  The problems are padded to a common width plus one dummy
    column that padded active slots point at.  Per round:

    * the active Gram blocks, in insertion order, are gathered with one
      flat index into the running walks' Grams, and each padded slot gets 1
      on its diagonal through a strided view, so the padding is identity;
    * the blocks go through one stacked solve for ``(a, b)``;
    * every column's correlation change comes from one stacked product of
      the Grams with the scattered ``(a, b)``;
    * the weights at which each active coefficient would reach zero and each
      live inactive column would enter form one row per walk, and the
      weights at or above the current one are struck out in place;
    * each walk's next event is its row's first maximum below the current
      weight, with deletions in active order ahead of insertions in
      ascending column order;
    * only when some walk stops are the running walks' arrays compacted and
      the flat row offsets rebuilt, and a round where every walk inserts
      skips the deletion bookkeeping and grows the block width by one
      without a reduction.

    A walk stops when no event lies above ``lam``, or at ``max_iter`` events
    with the iterate at its last event and ``converged=False``.  Zero columns
    never enter, and neither does a column equal to an earlier column of its
    dictionary: with its twin it would make the active block singular, and
    alone it would only stand in for the twin.

    ``gram`` may carry a precomputed ``D.T @ D`` for a dictionary solved
    repeatedly.  Results come back in the order of ``problems``.  An item's
    result does not depend on its position in the batch, and differs from
    the same item solved alone only by rounding.
    """
    check_lam(lam)
    count = len(problems)
    if not count:
        return []
    widths = np.array([d.width for d, _, _ in problems])
    width, dim = int(widths.max()), max(d.dim for d, _, _ in problems)
    cols = np.zeros((count, dim, width))
    vs = np.zeros((count, dim))
    # Column `width` is the dummy: zero in every Gram and never entering.
    grams = np.zeros((count, width + 1, width + 1))
    corr = np.zeros((count, width + 1))
    enter = np.zeros((count, width + 1), dtype=bool)
    for i, (dictionary, v, gram) in enumerate(problems):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (dictionary.dim,):
            raise ValueError(f"v must have shape ({dictionary.dim},)")
        w = dictionary.width
        if gram is not None and gram.shape != (w, w):
            raise ValueError(f"gram must have shape ({w}, {w})")
        cols[i, : dictionary.dim, :w] = dictionary.columns
        vs[i, : dictionary.dim] = v
    if not (np.all(np.isfinite(cols)) and np.all(np.isfinite(vs))):
        raise ValueError("inputs must be finite")
    for i, (dictionary, _, gram) in enumerate(problems):
        w, columns = dictionary.width, dictionary.columns
        grams[i, :w, :w] = columns.T @ columns if gram is None else gram
        corr[i, :w] = columns.T @ vs[i, : dictionary.dim]
        enter[i, :w] = dictionary.first_copies
    enter &= np.diagonal(grams, axis1=1, axis2=2) > 0.0

    scale = np.maximum(1.0, np.abs(corr).max(axis=1))
    event_tol = 1e-12 * scale
    top = np.where(enter, corr, -np.inf)
    lam_max = 2.0 * top.max(axis=1)
    walking = lam < lam_max  # the rest end at h = 0
    h = np.zeros((count, width + 1))
    events = np.zeros(count, dtype=np.int64)
    reached = np.zeros(count, dtype=bool)  # no event left above lam

    # State of the running walks, compacted whenever some stop.
    run = walking.nonzero()[0] if max_iter > 0 else np.arange(0)
    gram = grams if run.size == count else grams[run]
    # Per column (c_t, 1/2): an active column's row of the segment system,
    # and the base of an inactive column's event weight.
    base = np.empty((run.size, width + 1, 2))
    base[:, :, 0] = corr[run]
    base[:, :, 1] = 0.5
    enter = enter[run]
    lo, hi = lam + event_tol[run], lam_max[run] - event_tol[run]
    etol = event_tol[run]
    # Each walk's row offset in the flattened (walk, column) arrays.
    rows = np.arange(run.size)
    starts = rows[:, None] * (width + 1)
    active = np.full((run.size, width + 1), width, dtype=np.intp)
    active[:, 0] = top[run].argmax(axis=1)
    enter[rows, active[:, 0]] = False
    nact = np.ones(run.size, dtype=np.intp)
    slots, k, rounds = np.arange(width), 1, 0

    while run.size:
        rounds += 1
        act = active[:, :k]
        at_rows = starts + act
        block = gram.ravel()[(at_rows * (width + 1))[:, :, None] + act[:, None, :]]
        # Identity padding: 1 on each padded slot's diagonal, read as a strided view.
        block.reshape(run.size, -1)[:, :: k + 1] += act == width
        sol = _solve_blocks(block, base.reshape(-1, 2)[at_rows], nact)
        path = np.zeros((run.size, width + 1, 2))
        path.reshape(-1, 2)[at_rows] = sol
        # Deletions: a / b where b < 0, as (-a/2) / (-b/2).  Insertions:
        # 2 (c - G a) / (1 - 2 G b), as (c - G a) / (1/2 - G b).  Halving
        # is exact, so both test one threshold and round as the full forms.
        ev = np.concatenate((sol * -0.5, base - gram @ path), axis=1)
        valid = ev[:, :, 1] > 5e-16
        valid[:, k:] &= enter
        lam_all = np.empty(valid.shape)
        lam_all.fill(-np.inf)
        np.divide(ev[:, :, 0], ev[:, :, 1], out=lam_all, where=valid)
        lam_all[~(lam_all < hi[:, None])] = -np.inf
        pick = lam_all.argmax(axis=1)
        best = lam_all[rows, pick]
        done = ~(best > lo)

        stop = done if rounds < max_iter else np.ones(run.size, dtype=bool)
        if stop.any():
            # The iterate at lam, or at this event when the cap hits.
            i = stop.nonzero()[0]
            at = np.where(done[i], lam, best[i])
            h[run[i]] = (path[i, :, 0] - at[:, None] * path[i, :, 1]).clip(0.0, None)
            events[run[i]] = rounds
            reached[run[i[done[i]]]] = True
            keep = ~stop
            run, gram, base, enter = run[keep], gram[keep], base[keep], enter[keep]
            lo, etol, active, nact = lo[keep], etol[keep], active[keep], nact[keep]
            pick, best = pick[keep], best[keep]
            rows = np.arange(run.size)
            starts = rows[:, None] * (width + 1)
        hi = best - etol

        # Never the last active column: alone it has b = 0.5 / ||d||^2 >= 0,
        # so it never shrinks and the active set never empties.
        # A round where every walk inserts skips the deletion bookkeeping,
        # and the widest block grows by one unless some walk just stopped.
        add = pick >= k
        if add.all():
            new = pick - k
            active[rows, nact] = new
            enter[rows, new] = False
            nact += 1
            k = k + 1 if not stop.any() else int(nact.max(initial=0))
            continue
        # Slots from k on hold the dummy, so shifting the first k suffices.
        i = (~add).nonzero()[0]
        gone = pick[i]
        enter[i, active[i, gone]] = True
        active[i, :k] = active[i[:, None], slots[:k] + (slots[:k] >= gone[:, None])]
        i = add.nonzero()[0]
        new = pick[i] - k
        active[i, nact[i]] = new
        enter[i, new] = False
        nact += np.where(add, 1, -1)
        k = int(nact.max())

    h = h[:, :width]
    resid = vs - (cols @ h[:, :, None])[:, :, 0]
    grad = -2.0 * (cols.transpose(0, 2, 1) @ resid[:, :, None])[:, :, 0] + lam
    support = h > 0
    stationarity = np.where(support, np.abs(grad), 0.0).max(axis=1, initial=0.0)
    off = support | (np.arange(width) >= widths[:, None])
    violation = np.maximum(0.0, -np.where(off, np.inf, grad).min(axis=1, initial=np.inf))
    kkt_tol = np.maximum(tol, 1e-7 * scale)
    converged = ~walking | (reached & (stationarity <= kkt_tol) & (violation <= kkt_tol))
    objective = (resid * resid).sum(axis=1) + lam * h.sum(axis=1)
    flags, sweeps, values = converged.tolist(), events.tolist(), objective.tolist()
    return [
        LassoResult(h[i, : d.width].copy(), flags[i], sweeps[i], values[i])
        for i, (d, _, _) in enumerate(problems)
    ]


def solve_tikhonov_batch(
    problems: Sequence[tuple[Dictionary, np.ndarray, np.ndarray]],
    alpha: float,
    n1: float | None = None,
    n2: float | None = None,
) -> list[np.ndarray]:
    """Closed-form solves of the prior-anchored least-squares blend, one per
    problem ``(dictionary, v, h0)``.

    Minimizes ``alpha * ||v - D h||^2 / n1 + (1 - alpha) * ||h - h0||^2 / n2``
    where the normalizers default to each problem's ``||v||^2`` and
    ``||h0||^2``.  With ``a1 = alpha/n1`` and ``a2 = (1-alpha)/n2`` the unique
    solution is

        h* = a1 * D^T (a1 D D^T + a2 I)^{-1} (v - D h0) + h0

    which only ever inverts a (dim x dim) matrix.  Callers solving several
    blocks of one larger problem can pass shared ``n1``/``n2``.  Every
    problem's system, right-hand side and back-product is formed on its own;
    only the solves share one stacked LAPACK call, which factors each system
    as a call of its own would, so the dictionaries must share one ``dim``.
    Results come back in the order of ``problems``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if not problems:
        return []
    dim = problems[0][0].dim
    if any(dictionary.dim != dim for dictionary, _, _ in problems):
        raise ValueError("dictionaries must share one dim")
    systems, rhs, backs = [], [], []
    eye = np.eye(dim)
    for dictionary, v, h0 in problems:
        v = np.asarray(v, dtype=np.float64)
        h0 = np.asarray(h0, dtype=np.float64)
        if v.shape != (dictionary.dim,):
            raise ValueError(f"v must have shape ({dictionary.dim},)")
        if h0.shape != (dictionary.width,):
            raise ValueError(f"h0 must have shape ({dictionary.width},)")
        v_norm = float(v @ v) if n1 is None else n1
        h0_norm = float(h0 @ h0) if n2 is None else n2
        if v_norm <= 0 or h0_norm <= 0:
            raise ValueError("normalizers must be positive (zero v or h0)")
        a1 = alpha / v_norm
        a2 = (1.0 - alpha) / h0_norm
        cols = dictionary.columns
        systems.append(a1 * (cols @ cols.T) + a2 * eye)
        rhs.append(v - cols @ h0)
        backs.append((a1, cols, h0))
    z = np.linalg.solve(np.stack(systems), np.stack(rhs)[:, :, None])[:, :, 0]
    return [a1 * (cols.T @ zi) + h0 for (a1, cols, h0), zi in zip(backs, z)]

