"""Frozen scalar-loop homotopy solver: the reference the vectorized solver must match.

This is the per-candidate loop ``dehash.sparse`` shipped before its event
search was vectorized, kept unchanged so the parity tests can require
identical coefficients, event counts and convergence flags.  Do not edit it
to follow the production solver.
"""

import numpy as np

from dehash.sparse import Dictionary, LassoResult

from solver_reference import lasso_kkt_residuals, lasso_objective


def _segment_solution(gram, corr, active):
    """Per-segment path coefficients: h_A(lam) = a - lam * b on the active set."""
    g = gram[np.ix_(active, active)]
    rhs = np.column_stack([corr[active], np.full(len(active), 0.5)])
    try:
        sol = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(g, rhs, rcond=None)
    return sol[:, 0], sol[:, 1]


def homotopy_nn_lasso_reference(
    dictionary: Dictionary, v: np.ndarray, lam: float, tol: float, max_iter: int
) -> LassoResult:
    """Exact regularization-path solve, from the all-zero end down to ``lam``.

    The optimum is piecewise linear in the weight: on each segment the active
    coefficients follow ``a - lam * b``.  Walking segment events (a
    coefficient hitting zero, or an inactive correlation catching up with the
    threshold) keeps every iterate exactly optimal for its own weight, which
    is what coherent, overcomplete dictionaries need.
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

    gram = cols.T @ cols
    active = [int(np.argmax(corr))]
    events = 0
    converged = False
    sq = np.diag(gram)

    while events < max_iter:
        events += 1
        a, b = _segment_solution(gram, corr, active)

        # Deletion events: an active coefficient dropping to zero (it shrinks
        # as the weight decreases exactly when b < 0).
        candidates: list[tuple[float, str, int]] = []
        for i, t in enumerate(active):
            if b[i] < -1e-15:
                lam_star = a[i] / b[i]
                if lam + event_tol < lam_star < lam_cur - event_tol:
                    candidates.append((float(lam_star), "del", t))
        # Insertion events: an inactive correlation reaching the threshold.
        inactive = [t for t in range(width) if t not in active and sq[t] > 0.0]
        if inactive:
            ia = np.asarray(inactive)
            p = 2.0 * (corr[ia] - gram[np.ix_(ia, active)] @ a)
            q = 2.0 * (gram[np.ix_(ia, active)] @ b)
            for p_t, q_t, t in zip(p, q, ia):
                denom = 1.0 - q_t
                if denom > 1e-15:
                    lam_star = p_t / denom
                    if lam + event_tol < lam_star < lam_cur - event_tol:
                        candidates.append((float(lam_star), "add", int(t)))

        if not candidates:
            h[:] = 0.0
            final = np.clip(a - lam * b, 0.0, None)
            for i, t in enumerate(active):
                h[t] = final[i]
            converged = True
            break

        lam_star, kind, t = max(candidates, key=lambda c: c[0])
        # Keep a valid iterate for this segment in case the event cap hits.
        h[:] = 0.0
        at_event = np.clip(a - lam_star * b, 0.0, None)
        for i, u in enumerate(active):
            h[u] = at_event[i]
        lam_cur = lam_star
        if kind == "del":
            idx = active.index(t)
            active.pop(idx)
            if not active:
                # Re-seed with the best correlation at this weight.
                resid_corr = 2.0 * corr
                best = int(np.argmax(resid_corr))
                if resid_corr[best] > lam_cur:
                    active = [best]
                else:
                    h[:] = 0.0
                    converged = True
                    break
        else:
            active.append(t)

    stationarity, violation = lasso_kkt_residuals(dictionary, v, lam, h)
    kkt_tol = max(tol, 1e-7 * scale)
    converged = converged and stationarity <= kkt_tol and violation <= kkt_tol
    return LassoResult(h, converged, events, lasso_objective(dictionary, v, lam, h))
