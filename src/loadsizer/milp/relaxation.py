"""Exact LP relaxation of the big-M instance under 0/1 fixes of its binaries.

Every binary is either fixed (to 0 or 1) or free, and some optimum has
``x <= max(s)``, so for any ``M >= max(s)`` the big-M rows reduce to
``y = x_i`` for a fixed-1 pair, ``y = 0`` for a fixed-0 pair and
``0 <= y <= x_i`` for a free one: M never changes the relaxation. y and u
are therefore eliminated analytically, and each timestep contributes
``min(s_t, sum of x_i over loads not fixed off)``, with the fixed-on
sizes also capped by ``s_t``. Timesteps with no fixes at all collapse into
one concave piecewise-linear term of ``W = sum(x)``, built up by exact
cutting planes, which keeps the master LP size proportional to the number
of branched pairs instead of the full horizon. Only the bound and the
sizes x are returned; branch and bound derives its schedule from x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError
from .instance import MilpInstance
from .simplex import solve_lp

_CUT_TOL = 1e-9
_MAX_CUTS = 120


@dataclass
class LpRelaxation:
    """Relaxation outcome: a valid mismatch lower bound and the LP's sizes."""

    objective_lb: float
    x: np.ndarray = field(repr=False)
    status: str = "optimal"  # optimal | cut_stall | cut_limit


def _virgin_capture(sorted_s: np.ndarray, prefix: np.ndarray, w: float) -> float:
    """sum over the sorted values of min(w, s): exact via prefix sums."""
    idx = int(np.searchsorted(sorted_s, w, side="right"))
    return float(prefix[idx] + w * (sorted_s.size - idx))


def _virgin_slope(sorted_s: np.ndarray, w: float) -> float:
    """Right derivative of the capture term: the count of values above w."""
    return float(sorted_s.size - np.searchsorted(sorted_s, w, side="right"))


def solve_lp_relaxation(instance: MilpInstance, fixes=None) -> LpRelaxation:
    """Optimal value and sizes of the LP relaxation.

    ``fixes`` maps ``(i, t)`` to 0 or 1 and pins those binaries; the
    rest stay free in [0, 1]. The returned ``objective_lb`` is a valid
    lower bound on every integral completion (exactly the LP optimum when
    the cut loop converges, which it does for all but pathological inputs;
    otherwise it is a weaker valid bound and the status says so).
    """
    fixed_on, fixed_off = instance.fix_masks(fixes)
    n, T = instance.n, instance.horizon
    s = instance.s
    touched = np.flatnonzero(fixed_on.any(axis=0) | fixed_off.any(axis=0))
    virgin_mask = np.ones(T, dtype=bool)
    virgin_mask[touched] = False
    virgin_sorted = np.sort(s[virgin_mask])
    prefix = np.concatenate([[0.0], np.cumsum(virgin_sorted)])
    x_cap = float(s.max())

    # master variables: x (n), z_t per touched step, g for the virgin term
    nt = touched.size
    nvars = n + nt + 1
    g_col = n + nt

    a_rows: list[np.ndarray] = []
    b_vals: list[float] = []

    def add_row(coeffs: dict[int, float], rhs: float) -> None:
        row = np.zeros(nvars)
        for j, v in coeffs.items():
            row[j] = v
        a_rows.append(row)
        b_vals.append(rhs)

    for k, t in enumerate(touched):
        z = n + k
        add_row({z: 1.0}, float(s[t]))
        avail = ~fixed_off[:, t]
        row = np.zeros(nvars)
        row[z] = 1.0
        row[:n][avail] = -1.0
        a_rows.append(row)
        b_vals.append(0.0)
        if fixed_on[:, t].any():
            row = np.zeros(nvars)
            row[:n][fixed_on[:, t]] = 1.0
            a_rows.append(row)
            b_vals.append(float(s[t]))
    for i in range(n):
        add_row({i: 1.0}, x_cap)

    def add_cut(w0: float) -> None:
        slope = _virgin_slope(virgin_sorted, w0)
        intercept = _virgin_capture(virgin_sorted, prefix, w0) - slope * w0
        row = np.zeros(nvars)
        row[g_col] = 1.0
        row[:n] = -slope
        a_rows.append(row)
        b_vals.append(intercept)

    add_cut(0.0)
    if x_cap > 0:
        add_cut(n * x_cap)

    c = np.zeros(nvars)
    c[n:] = -1.0  # max sum(z) + g

    capture_ub = np.inf
    status = "optimal"
    seen: set[float] = set()
    for _ in range(_MAX_CUTS):
        res = solve_lp(c, a_ub=np.vstack(a_rows), b_ub=np.array(b_vals))
        if not res.ok:
            raise NumericError(f"relaxation master LP came back {res.status}")
        # the master overestimates the virgin term until the cuts close, so
        # its value stays a valid capture upper bound either way
        capture_ub = -res.fun
        w_star = float(res.x[:n].sum())
        g_star = float(res.x[g_col])
        g_true = _virgin_capture(virgin_sorted, prefix, w_star)
        if g_star <= g_true + _CUT_TOL:
            break
        key = round(w_star, 12)
        if key in seen:
            status = "cut_stall"
            break
        seen.add(key)
        add_cut(w_star)
    else:
        status = "cut_limit"

    return LpRelaxation(
        objective_lb=instance.total_power - capture_ub,
        x=np.maximum(res.x[:n], 0.0),
        status=status,
    )
