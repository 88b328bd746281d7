"""Two-phase simplex against textbook cases, a scipy cross-check and, LP
by LP, the row-by-row reference kernel on every LP branch and bound makes."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from loadsizer.errors import DataError
from loadsizer.milp import bnb, branch_and_bound, build_instance, relaxation
from loadsizer.milp.simplex import _BLAND_AFTER, solve_lp
from loadsizer.timeseries import downsample_uniform, sort_ascending
from oracles import reference_solve_lp

# Beale's cycling example: Dantzig's rule stalls on it until Bland's takes over
BEALE = (
    [-0.75, 150, -0.02, 6],
    [[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]],
    [0, 0, 1],
)


def test_basic_maximization():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), obj 36
    res = solve_lp(
        c=[-3, -5],
        a_ub=[[1, 0], [0, 2], [3, 2]],
        b_ub=[4, 12, 18],
    )
    assert res.ok
    assert res.x == pytest.approx([2, 6], abs=1e-9)
    assert res.fun == pytest.approx(-36, abs=1e-9)


def test_equality_constraints_need_phase1():
    # min x + 2y + 3z s.t. x + y + z = 1, x - y = 0.2
    res = solve_lp(
        c=[1, 2, 3],
        a_eq=[[1, 1, 1], [1, -1, 0]],
        b_eq=[1, 0.2],
    )
    assert res.ok
    assert res.x == pytest.approx([0.6, 0.4, 0.0], abs=1e-9)


def test_infeasible_detected():
    res = solve_lp(c=[1], a_ub=[[1], [-1]], b_ub=[1, -3])  # x <= 1 and x >= 3
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_lp(c=[-1], a_ub=[[-1]], b_ub=[0])  # max x, x >= 0 only
    assert res.status == "unbounded"


def test_negative_rhs_rows():
    # x >= 2 encoded as -x <= -2, minimize x
    res = solve_lp(c=[1], a_ub=[[-1]], b_ub=[-2])
    assert res.ok
    assert res.x == pytest.approx([2], abs=1e-9)


def test_degenerate_cycling_guard():
    # classic Beale cycling example (converges with anti-cycling)
    res = solve_lp(*BEALE)
    assert res.ok
    assert res.fun == pytest.approx(-0.05, abs=1e-9)


def test_redundant_equalities():
    res = solve_lp(
        c=[1, 1],
        a_eq=[[1, 1], [2, 2]],
        b_eq=[1, 2],  # same plane twice
    )
    assert res.ok
    assert res.fun == pytest.approx(1.0, abs=1e-9)


def test_redundant_equalities_keep_their_right_hand_side():
    # x + y = 2 stated twice: phase 1 drops the redundant row and keeps b
    res = solve_lp(c=[1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
    assert res.ok
    assert res.x == pytest.approx([2, 0], abs=1e-9)
    assert res.fun == pytest.approx(2.0, abs=1e-9)


def test_no_constraint_rows():
    assert solve_lp([-1.0]).status == "unbounded"
    res = solve_lp([1.0])
    assert res.ok
    assert res.x.tolist() == [0.0]
    assert res.fun == 0.0


@pytest.mark.parametrize(
    "lp, message",
    [
        ({"c": [np.nan, 1.0], "a_ub": [[1, 1]], "b_ub": [1]}, "LP coefficients must be finite"),
        ({"c": [1, 1], "a_ub": [[np.nan, 1]], "b_ub": [1]}, "LP coefficients must be finite"),
        ({"c": [1, 1], "a_ub": [[1, 1]], "b_ub": [np.inf]}, "LP coefficients must be finite"),
        ({"c": [1, 1], "a_eq": [[1, 1]], "b_eq": [np.nan]}, "LP coefficients must be finite"),
        (
            {"c": [1, 1], "a_ub": [[1, 1], [1, 0]], "b_ub": [1]},
            r"a_ub must be 1 x 2, one row per entry of b_ub and one column per entry of c, "
            r"got shape \(2, 2\)",
        ),
        (
            {"c": [1, 1], "a_ub": [[1, 1, 1]], "b_ub": [1]},
            r"a_ub must be 1 x 2, .*, got shape \(1, 3\)",
        ),
        ({"c": [1, 1], "b_ub": [1]}, r"a_ub must be 1 x 2, .*, got shape \(0, 2\)"),
        (
            {"c": [1, 1], "a_eq": [[1, 1]], "b_eq": [1, 2]},
            r"a_eq must be 2 x 2, one row per entry of b_eq and one column per entry of c, "
            r"got shape \(1, 2\)",
        ),
    ],
    ids=["nan-c", "nan-a_ub", "inf-b_ub", "nan-b_eq", "short-b_ub", "wide-a_ub", "no-a_ub",
         "long-b_eq"],
)
def test_bad_lp_data_is_refused(lp, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        solve_lp(**lp)


def replay_signature(res) -> tuple:
    """Status, pivot count and the bytes of x and of the objective."""
    x = None if res.x is None else res.x.tobytes()
    return res.status, res.iterations, x, np.float64(res.fun).tobytes()


def test_every_branch_and_bound_lp_matches_the_reference_bytes(monkeypatch, year_series):
    """Each LP branch and bound solves, on criterion-6-sized instances and
    on the downsampled year, ends as the row-by-row kernel ends it: same
    status, same pivots, the same bytes of x and of the objective. So do
    Beale's LP, which runs Bland's rule, and random LPs whose negative
    right-hand sides flip rows."""
    lps = []

    def recording(*args, **kwargs):
        lps.append((args, kwargs, solve_lp(*args, **kwargs)))
        return lps[-1][2]

    monkeypatch.setattr(relaxation, "solve_lp", recording)
    monkeypatch.setattr(bnb, "solve_lp", recording)
    rng = np.random.default_rng(6)
    for n, horizon in [(1, 14), (2, 7), (2, 6), (3, 4), (4, 3)]:
        s = np.round(rng.uniform(0.05, 1.0, size=horizon), 4)
        branch_and_bound(build_instance(s, n), gap_tol=0.0)
    year = downsample_uniform(sort_ascending(year_series, remove_zeros=False), 200)
    for n in (2, 3):
        branch_and_bound(build_instance(year.values, n), node_limit=20)
    beale = solve_lp(*BEALE)
    assert beale.iterations > _BLAND_AFTER
    lps.append((BEALE, {}, beale))
    # branch and bound's right-hand sides are >= 0; these flip rows too
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        lp = (rng.normal(size=n), rng.normal(size=(4, n)), rng.normal(size=4))
        eq = {"a_eq": rng.normal(size=(1, n)), "b_eq": rng.normal(size=1)}
        lps.append((lp, eq, solve_lp(*lp, **eq)))

    phase_one = sum("a_eq" in kwargs for _, kwargs, _ in lps)
    statuses = {result.status for _, _, result in lps}
    assert len(lps) > 500 and phase_one > 100
    assert statuses == {"optimal", "infeasible", "unbounded"}
    for args, kwargs, result in lps:
        assert replay_signature(result) == replay_signature(reference_solve_lp(*args, **kwargs))


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 10))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.uniform(0.1, 2.0, size=m)
    # add a box to keep things bounded
    a_ub = np.vstack([a_ub, np.eye(n)])
    b_ub = np.concatenate([b_ub, np.full(n, 3.0)])
    mine = solve_lp(c, a_ub, b_ub)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert mine.ok and ref.status == 0
    assert mine.fun == pytest.approx(ref.fun, abs=1e-7)


@pytest.mark.parametrize("seed", range(8, 14))
def test_random_eq_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m_eq = int(rng.integers(1, 3))
    c = rng.normal(size=n)
    a_eq = rng.normal(size=(m_eq, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b_eq = a_eq @ x_feas  # guarantees feasibility
    a_ub = np.eye(n)
    b_ub = np.full(n, 2.0)
    mine = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert mine.ok and ref.status == 0
    assert mine.fun == pytest.approx(ref.fun, abs=1e-7)
