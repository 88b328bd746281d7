"""Oracles the tests check the package against; the package never runs them.

- `active_set_qp` is the scalar primal active-set iteration that ICLS ran
  one QP at a time before it ran each batch's QPs in lockstep. Every QP of
  a lockstep batch must end with its bytes: x, working set, multipliers
  and EQP count.
- `build_um` is the dense switch-state matrix U(m) that the ICLS fit
  stands for; the package builds its QP from block sums and never forms it.
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
