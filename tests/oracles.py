"""Oracles the tests check the package against; the package never runs them.

- `active_set_qp` is the scalar primal active-set iteration that ICLS ran
  one QP at a time before it ran each batch's QPs in lockstep. Every QP of
  a lockstep batch must end with its bytes: x, working set, multipliers
  and EQP count.
- `build_um` is the dense switch-state matrix U(m) that the ICLS fit
  stands for; the package builds its QP from block sums and never forms it.
- `reference_solve_lp` is the dense two-phase simplex as it ran before
  `loadsizer.milp.simplex.solve_lp` built its tableau in one pass and
  pivoted with one broadcast: row by row, one NumPy call per step. Every
  LP branch and bound makes must end with its status, pivot count and
  the bytes of x and of the objective. On equality rows that are linear
  combinations of others it keeps the first artificial column in place of
  the right-hand side, so it is no reference there.
- `line_search_single` is the brute-scan cross-check of the analytic
  single-load optimum: it scans the rectangle area ``2*t(y)*y`` on a
  uniform level grid, where `analytic.solve_single_load` bisects the
  stationarity condition.
"""

from __future__ import annotations

import bisect

import numpy as np

from loadsizer.analytic import AnalyticSolution, _guard_band, _solution
from loadsizer.dispatch import nonzero_combo_rows
from loadsizer.ecls import solve_kkt
from loadsizer.errors import DataError, NumericError
from loadsizer.icls import _KKT_TOL, SwitchTimes
from loadsizer.milp.simplex import _BLAND_AFTER, _PIVOT_TOL, _TOL, LpResult


def active_set_qp(H, g, C, b, max_iter, x, working, mult):
    """Minimize 0.5 x'Hx - g'x subject to Cx <= b (H strictly convex).

    Classic primal active-set iteration (Nocedal & Wright, Numerical
    Optimization, ch. 16): solve the equality-constrained subproblem (EQP)
    on the working set, step to the first blocking constraint when the
    subproblem solution is infeasible, and drop the constraint with the
    most negative multiplier when it is stationary. The working set is
    kept sorted, so every KKT system is built in one canonical row order
    and the final working set fixes the answer, whatever path led to it.
    On degenerate data different starts can end on different working
    sets, whose points may differ by an ulp.

    It starts from ``x``, the feasible EQP point of the sorted ``working``
    set with multipliers ``mult``, and returns at once when they are all
    >= -``_KKT_TOL``. A full step lands on the EQP point just solved, so
    its multipliers are tested without solving that working set again.
    Returns ``(x, working, multipliers, EQPs solved)``.
    """
    working = list(working)
    x_eq, solves = x, 0
    while mult.size and mult.min() < -_KKT_TOL:
        working.pop(int(np.argmin(mult)))
        blocking = 0
        while blocking >= 0:  # until a full step or a stationary EQP point
            if solves == max_iter:
                raise NumericError(f"active set did not terminate; working set {working}")
            solves += 1
            try:
                x_eq, mult = solve_kkt(H, g, C[working], b[working])
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"singular working-set system {working}: {exc}") from exc
            d = x_eq - x
            if np.abs(d).max() <= 1e-13:
                break
            rates = C @ d
            slack = b - C @ x
            # rows that can block a step of length < 1 - 1e-15, in index order;
            # the scan keeps the first row outside the working set that beats
            # the running ratio by 1e-15
            rows = np.flatnonzero(rates > 1e-14)
            ratios = slack[rows] / rates[rows]
            near = ratios < 1.0 - 1e-15
            blocking = -1
            alpha = 1.0
            for i, ratio in zip(rows[near].tolist(), ratios[near].tolist()):
                if ratio < alpha - 1e-15 and i not in working:
                    alpha = max(ratio, 0.0)
                    blocking = i
            x = x + alpha * d
            if blocking >= 0:
                bisect.insort(working, blocking)
    return x_eq, working, mult, solves


def build_um(m: SwitchTimes, n: int) -> np.ndarray:
    """Dense switch-state matrix with block k repeated ``m_k`` times."""
    rows = nonzero_combo_rows(n)
    if len(m.lengths) != rows.shape[0]:
        raise DataError(f"{len(m.lengths)} blocks do not match n={n}")
    return np.repeat(rows, m.lengths, axis=0)


def line_search_single(model, grid_size: int = 1000) -> AnalyticSolution:
    """Single-load optimum by brute scan of ``2*t(y)*y`` on a uniform y grid."""
    if grid_size < 10:
        raise DataError("grid_size must be >= 10")
    lo, hi = _guard_band(model)
    ys = np.linspace(lo, hi, grid_size)
    widths = np.asarray(model.half_width(ys), dtype=float)
    areas = 2.0 * widths * ys
    j = int(np.argmax(areas))
    return _solution(model, [ys[j]], grid_size, {"grid_size": grid_size})


def _reference_pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _reference_run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int):
    """Iterate to optimality on the given tableau; returns (status, iters)."""
    m = tableau.shape[0] - 1
    stall = 0
    iterations = 0
    while iterations < max_iter:
        cost = tableau[-1, :ncols]
        if stall < _BLAND_AFTER:
            col = int(np.argmin(cost))
            if cost[col] >= -_TOL:
                return "optimal", iterations
        else:  # Bland: first improving column
            negatives = np.flatnonzero(cost < -_TOL)
            if negatives.size == 0:
                return "optimal", iterations
            col = int(negatives[0])
        ratios = np.full(m, np.inf)
        pos = tableau[:m, col] > _PIVOT_TOL
        ratios[pos] = tableau[:m, -1][pos] / tableau[:m, col][pos]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            return "unbounded", iterations
        if stall >= _BLAND_AFTER:
            # Bland tie-break: smallest basis column among minimal ratios
            tied = np.flatnonzero(np.isclose(ratios, ratios[row], rtol=0, atol=1e-12))
            row = int(tied[np.argmin(basis[tied])])
        before = tableau[-1, -1]
        _reference_pivot(tableau, basis, row, col)
        stall = stall + 1 if tableau[-1, -1] >= before - 1e-13 else 0
        iterations += 1
    return "iteration_limit", iterations


def reference_solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LpResult:
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    a_ub = np.empty((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.empty(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.empty((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.empty(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    # equality system [A_ub I; A_eq 0] with slacks, rhs made non-negative
    a = np.zeros((m, n + m_ub))
    a[:m_ub, :n] = a_ub
    a[:m_ub, n : n + m_ub] = np.eye(m_ub)
    a[m_ub:, :n] = a_eq
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0
    a[flip] *= -1.0
    b[flip] = -b[flip]

    # rows whose slack still forms a unit column start basic; others get
    # artificials
    needs_artificial = np.ones(m, dtype=bool)
    basis = np.full(m, -1, dtype=np.int64)
    for i in range(m_ub):
        if not flip[i]:
            basis[i] = n + i
            needs_artificial[i] = False
    art_rows = np.flatnonzero(needs_artificial)
    n_art = art_rows.size
    ncols = n + m_ub + n_art
    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m, : n + m_ub] = a
    tableau[:m, -1] = b
    for j, i in enumerate(art_rows):
        col = n + m_ub + j
        tableau[i, col] = 1.0
        basis[i] = col

    max_iter = max(2000, 50 * (m + ncols))  # pivots per phase

    # phase 1: minimize the artificial sum
    if n_art:
        tableau[-1, n + m_ub : ncols] = 1.0
        for i in art_rows:
            tableau[-1] -= tableau[i]
        status, it1 = _reference_run_simplex(tableau, basis, ncols, max_iter)
        if status != "optimal":
            return LpResult(status="iteration_limit", iterations=it1)
        if tableau[-1, -1] < -1e-7:
            return LpResult(status="infeasible", iterations=it1)
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= n + m_ub:
                candidates = np.flatnonzero(np.abs(tableau[i, : n + m_ub]) > _PIVOT_TOL)
                if candidates.size:
                    _reference_pivot(tableau, basis, i, int(candidates[0]))
        keep = basis < n + m_ub
        if not keep.all():  # redundant rows pinned to artificials
            rows = np.concatenate([np.flatnonzero(keep), [m]])
            tableau = tableau[rows][:, : n + m_ub + 1]
            basis = basis[keep]
            m = basis.size
        else:
            tableau = tableau[:, list(range(n + m_ub)) + [ncols]]
        ncols = n + m_ub
    else:
        it1 = 0
        tableau = tableau[:, : ncols + 1]

    # phase 2: restore the real objective
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(m):
        if basis[i] < n and abs(c[basis[i]]) > 0:
            tableau[-1] -= c[basis[i]] * tableau[i]
    status, it2 = _reference_run_simplex(tableau, basis, ncols, max_iter)
    if status != "optimal":
        return LpResult(status=status, iterations=it1 + it2)
    x = np.zeros(ncols)
    x[basis] = tableau[:m, -1]
    x = np.where(np.abs(x) < 1e-12, 0.0, x)
    return LpResult(
        status="optimal",
        x=x[:n],
        fun=float(c @ x[:n]),
        iterations=it1 + it2,
    )
