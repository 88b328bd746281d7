"""Dense two-phase tableau simplex for small and medium LPs.

Solves ``min c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x = b_eq``
and ``x >= 0``. Phase 1 drives artificial variables out of the basis;
phase 2 prices with Dantzig's rule and falls back to Bland's rule after a
degeneracy streak to rule out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-9
_PIVOT_TOL = 1e-10
_BLAND_AFTER = 300  # consecutive non-improving pivots before Bland's rule


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None = field(default=None, repr=False)
    fun: float = np.nan
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int):
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
        _pivot(tableau, basis, row, col)
        stall = stall + 1 if tableau[-1, -1] >= before - 1e-13 else 0
        iterations += 1
    return "iteration_limit", iterations


def solve_lp(
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
        status, it1 = _run_simplex(tableau, basis, ncols, max_iter)
        if status != "optimal":
            return LpResult(status="iteration_limit", iterations=it1)
        if tableau[-1, -1] < -1e-7:
            return LpResult(status="infeasible", iterations=it1)
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= n + m_ub:
                candidates = np.flatnonzero(np.abs(tableau[i, : n + m_ub]) > _PIVOT_TOL)
                if candidates.size:
                    _pivot(tableau, basis, i, int(candidates[0]))
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
    status, it2 = _run_simplex(tableau, basis, ncols, max_iter)
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
