"""Frozen lockstep homotopy walk: the reference the production walk must match bit for bit.

These are ``solve_nn_lasso_batch`` and ``_solve_blocks`` as ``dehash.sparse``
shipped them before the lockstep round was trimmed (gathers, identity
padding and event search rewritten without changing one floating-point
operation), kept unchanged so the parity tests can require identical
coefficient bytes, event counts, convergence flags and objectives.  Do not
edit them to follow the production solver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dehash.sparse import LASSO_MAX_ITER, LASSO_TOL, Dictionary, LassoResult


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

    * the active Gram blocks, in insertion order and padded with identity,
      go through one stacked solve for ``(a, b)``;
    * every column's correlation change comes from one stacked product of
      the Grams with the scattered ``(a, b)``;
    * the weights at which each active coefficient would reach zero and each
      live inactive column would enter form one row per walk;
    * each walk's next event is its row's first maximum below the current
      weight, with deletions in active order ahead of insertions in
      ascending column order.

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
    if lam < 0:
        raise ValueError("lam must be >= 0")
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

    scale = np.maximum(1.0, np.max(np.abs(corr), axis=1))
    event_tol = 1e-12 * scale
    top = np.where(enter, corr, -np.inf)
    lam_max = 2.0 * np.max(top, axis=1)
    walking = lam < lam_max  # the rest end at h = 0
    h = np.zeros((count, width + 1))
    events = np.zeros(count, dtype=np.int64)
    reached = np.zeros(count, dtype=bool)  # no event left above lam

    # State of the running walks, compacted whenever some stop.
    run = np.flatnonzero(walking) if max_iter > 0 else np.arange(0)
    gram = grams[run]
    # Per column (c_t, 1/2): an active column's row of the segment system,
    # and the base of an inactive column's event weight.
    base = np.empty((run.size, width + 1, 2))
    base[:, :, 0] = corr[run]
    base[:, :, 1] = 0.5
    enter = enter[run]
    lo, hi = lam + event_tol[run], lam_max[run] - event_tol[run]
    etol = event_tol[run]
    active = np.full((run.size, width + 1), width, dtype=np.intp)
    active[:, 0] = np.argmax(top[run], axis=1)
    enter[np.arange(run.size), active[:, 0]] = False
    nact = np.ones(run.size, dtype=np.intp)
    slots, eye = np.arange(width), np.eye(width + 1)
    rounds = 0

    while run.size:
        rounds += 1
        rows = np.arange(run.size)[:, None]
        k = int(nact.max())
        act = active[:, :k]
        block = gram[rows[:, :, None], act[:, :, None], act[:, None, :]]
        block += eye[:k, :k] * (act == width)[:, None, :]
        sol = _solve_blocks(block, base[rows, act], nact)
        path = np.zeros((run.size, width + 1, 2))
        path[rows, act] = sol
        # Deletions: a / b where b < 0, as (-a/2) / (-b/2).  Insertions:
        # 2 (c - G a) / (1 - 2 G b), as (c - G a) / (1/2 - G b).  Halving
        # is exact, so both test one threshold and round as the full forms.
        ev = np.concatenate((sol * -0.5, base - gram @ path), axis=1)
        valid = ev[:, :, 1] > 5e-16
        valid[:, k:] &= enter
        lam_all = np.divide(ev[:, :, 0], ev[:, :, 1], out=np.full(valid.shape, -np.inf), where=valid)
        lam_all = np.where(lam_all < hi[:, None], lam_all, -np.inf)
        pick = np.argmax(lam_all, axis=1)
        best = lam_all[rows[:, 0], pick]
        done = ~(best > lo)

        stop = done if rounds < max_iter else np.ones(run.size, dtype=bool)
        if stop.any():
            # The iterate at lam, or at this event when the cap hits.
            i = np.flatnonzero(stop)
            at = np.where(done[i], lam, best[i])
            h[run[i]] = np.clip(path[i, :, 0] - at[:, None] * path[i, :, 1], 0.0, None)
            events[run[i]] = rounds
            reached[run[i[done[i]]]] = True
            keep = ~stop
            run, gram, base, enter = run[keep], gram[keep], base[keep], enter[keep]
            lo, etol, active, nact = lo[keep], etol[keep], active[keep], nact[keep]
            pick, best = pick[keep], best[keep]
        hi = best - etol

        # Never the last active column: alone it has b = 0.5 / ||d||^2 >= 0,
        # so it never shrinks and the active set never empties.
        add = pick >= k
        i = np.flatnonzero(~add)
        if i.size:
            gone = pick[i]
            enter[i, active[i, gone]] = True
            active[i, :width] = active[i[:, None], slots + (slots >= gone[:, None])]
        i = np.flatnonzero(add)
        if i.size:
            new = pick[i] - k
            active[i, nact[i]] = new
            enter[i, new] = False
        nact += np.where(add, 1, -1)

    h = h[:, :width]
    resid = vs - (cols @ h[:, :, None])[:, :, 0]
    grad = -2.0 * (cols.transpose(0, 2, 1) @ resid[:, :, None])[:, :, 0] + lam
    support = h > 0
    stationarity = np.max(np.where(support, np.abs(grad), 0.0), axis=1, initial=0.0)
    off = support | (np.arange(width) >= widths[:, None])
    violation = np.maximum(0.0, -np.min(np.where(off, np.inf, grad), axis=1, initial=np.inf))
    kkt_tol = np.maximum(tol, 1e-7 * scale)
    converged = ~walking | (reached & (stationarity <= kkt_tol) & (violation <= kkt_tol))
    objective = np.sum(resid * resid, axis=1) + lam * np.sum(h, axis=1)
    return [
        LassoResult(h[i, : d.width].copy(), bool(converged[i]), int(events[i]), float(objective[i]))
        for i, (d, _, _) in enumerate(problems)
    ]
