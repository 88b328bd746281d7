"""Dense two-phase tableau simplex for small and medium LPs.

Solves ``min c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x = b_eq``
and ``x >= 0``. Phase 1 drives artificial variables out of the basis;
phase 2 prices with Dantzig's rule and falls back to Bland's rule after a
degeneracy streak to rule out cycling.

Branch and bound solves thousands of LPs with a few dozen rows and a few
pivots each, so the cost of an LP is the count of NumPy calls, not the
arithmetic: the tableau is built in one pass, a pivot is one broadcast
multiply-subtract and a ratio test one masked divide. It makes the float
operations of a row-by-row kernel in the same order, so its pivots and
the bytes of every answer are that kernel's, which ``tests/oracles.py``
keeps as the reference (save on redundant equality rows, where that
kernel lost the right-hand side).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError

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
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * pivot_row
    tableau[:, col] = 0.0
    pivot_row[col] = 1.0
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int):
    """Iterate to optimality on the given tableau; returns (status, iters)."""
    m = tableau.shape[0] - 1
    cost = tableau[-1, :ncols]  # views: every pivot updates the tableau in place
    rhs = tableau[:m, -1]
    ratios = np.empty(m)
    stall = 0
    iterations = 0
    while iterations < max_iter:
        if stall < _BLAND_AFTER:
            col = cost.argmin()
            if cost[col] >= -_TOL:
                return "optimal", iterations
        else:  # Bland: first improving column
            negatives = (cost < -_TOL).nonzero()[0]
            if negatives.size == 0:
                return "optimal", iterations
            col = negatives[0]
        if not m:  # no row limits an improving column
            return "unbounded", iterations
        column = tableau[:m, col]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > _PIVOT_TOL)
        row = ratios.argmin()
        if not -np.inf < ratios[row] < np.inf:  # no finite ratio
            return "unbounded", iterations
        if stall >= _BLAND_AFTER:
            # Bland tie-break: smallest basis column among minimal ratios
            tied = np.isclose(ratios, ratios[row], rtol=0, atol=1e-12).nonzero()[0]
            row = tied[np.argmin(basis[tied])]
        before = tableau[-1, -1]
        _pivot(tableau, basis, row, col)
        stall = stall + 1 if tableau[-1, -1] >= before - 1e-13 else 0
        iterations += 1
    return "iteration_limit", iterations


def _constraints(a, b, n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block as an (m, n) float matrix and its m right-hand
    sides; a block whose shape does not match raises ``DataError``."""
    a = np.empty((0, n)) if a is None else np.atleast_2d(np.asarray(a, dtype=float))
    b = np.empty(0) if b is None else np.asarray(b, dtype=float).ravel()
    if a.shape != (b.size, n):
        raise DataError(
            f"a_{name} must be {b.size} x {n}, one row per entry of b_{name} and one "
            f"column per entry of c, got shape {a.shape}"
        )
    return a, b


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LpResult:
    """Optimum of the LP, or the status that stopped it. Mismatched shapes
    and a coefficient that is not finite raise ``DataError``."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    a_ub, b_ub = _constraints(a_ub, b_ub, n, "ub")
    a_eq, b_eq = _constraints(a_eq, b_eq, n, "eq")
    m_ub, m_eq = b_ub.size, b_eq.size
    m = m_ub + m_eq
    real = n + m_ub  # structural and slack columns

    # rows whose slack still forms a unit column once the rhs is made
    # non-negative start basic; the others get artificials
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0
    needs_artificial = flip.copy()
    needs_artificial[m_ub:] = True
    art_rows = needs_artificial.nonzero()[0]
    n_art = art_rows.size
    ncols = real + n_art

    # [A_ub I 0; A_eq 0 0 | b] over the objective row, which holds c
    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m_ub, :n] = a_ub
    tableau[m_ub:m, :n] = a_eq
    slacks = np.arange(m_ub)
    tableau[slacks, n + slacks] = 1.0
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    if not np.isfinite(tableau).all():
        raise DataError("LP coefficients must be finite")
    if flip.any():
        tableau[:m][flip, :real] *= -1.0
        tableau[:m, -1][flip] *= -1.0
    basis = np.empty(m, dtype=np.int64)
    basis[:m_ub] = n + slacks
    basis[art_rows] = real + np.arange(n_art)
    tableau[art_rows, basis[art_rows]] = 1.0

    max_iter = max(2000, 50 * (m + ncols))  # pivots per phase

    # phase 1: minimize the artificial sum
    it1 = 0
    if n_art:
        tableau[-1, :n] = 0.0
        tableau[-1, real:ncols] = 1.0
        for i in art_rows:
            tableau[-1] -= tableau[i]
        status, it1 = _run_simplex(tableau, basis, ncols, max_iter)
        if status != "optimal":
            return LpResult(status="iteration_limit", iterations=it1)
        if tableau[-1, -1] < -1e-7:
            return LpResult(status="infeasible", iterations=it1)
        # drive leftover artificials out of the basis
        for i in (basis >= real).nonzero()[0]:
            candidates = (np.abs(tableau[i, :real]) > _PIVOT_TOL).nonzero()[0]
            if candidates.size:
                _pivot(tableau, basis, i, candidates[0])
        # drop the artificial columns, the rhs taking the first one's place
        tableau[:, real] = tableau[:, -1]
        tableau = tableau[:, : real + 1]
        ncols = real
        keep = basis < real
        if not keep.all():  # redundant rows pinned to artificials
            tableau = tableau[np.append(keep.nonzero()[0], m)]
            basis = basis[keep]
            m = basis.size
        # phase 2: restore the real objective, in place from the start
        # when no row needs an artificial
        tableau[-1] = 0.0
        tableau[-1, :n] = c
        for i in (basis < n).nonzero()[0]:
            if c[basis[i]]:
                tableau[-1] -= c[basis[i]] * tableau[i]

    status, it2 = _run_simplex(tableau, basis, ncols, max_iter)
    if status != "optimal":
        return LpResult(status=status, iterations=it1 + it2)
    x = np.zeros(ncols)
    x[basis] = tableau[:m, -1]
    x = x[:n]
    x[np.abs(x) < 1e-12] = 0.0
    return LpResult(status="optimal", x=x, fun=float(c @ x), iterations=it1 + it2)
