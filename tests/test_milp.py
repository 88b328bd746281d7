"""MILP: instance counts, exact LP relaxation, branch-and-bound exactness.

The exhaustive oracle enumerates candidate size vectors from every set of
n independent tight constraints (subset-sum level = some sample value, or
a size pinned at zero) and scores each by per-step exhaustive dispatch;
every optimal sizing is a vertex of the best-schedule polytope, so the
candidates cover the optimum.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import linprog

from loadsizer.dispatch import capture_best, combo_index, combo_states
from loadsizer.errors import DataError
from loadsizer.milp import (
    MilpInstance,
    bnb,
    branch_and_bound,
    build_instance,
    downsample_sweep,
    solve_lp_relaxation,
)
from loadsizer.milp.bnb import (
    _branch_or_offer,
    _dispatch,
    _Evaluator,
    _greedy_fill,
    _Incumbent,
    best_sizes_for_schedule,
)
from loadsizer.timeseries import SortedSeries, downsample_uniform, sort_ascending


def step_capture(s_t, x):
    """Independent per-step oracle: max feasible subset draw."""
    best = 0.0
    for bits in product((0, 1), repeat=len(x)):
        draw = sum(b * xi for b, xi in zip(bits, x))
        if draw <= s_t + 1e-12:
            best = max(best, draw)
    return best


def total_capture(s, x):
    return sum(step_capture(v, x) for v in s)


def exhaustive_optimum(s, n):
    """Best (objective, capture) over candidate vertex sizings."""
    s = np.asarray(s, dtype=float)
    patterns = []
    for bits in product((0, 1), repeat=n):
        if any(bits):
            patterns.append(np.array(bits, dtype=float))
    equations = [(p, float(v)) for p in patterns for v in np.unique(s)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        equations.append((e, 0.0))
    best_capture = 0.0
    best_sum = 0.0
    for combo in combinations(range(len(equations)), n):
        a = np.array([equations[k][0] for k in combo])
        b = np.array([equations[k][1] for k in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if (x < -1e-12).any():
            continue
        x = np.maximum(x, 0.0)
        cap = total_capture(s, x)
        if cap > best_capture + 1e-12 or (
            abs(cap - best_capture) <= 1e-12 and x.sum() < best_sum - 1e-12
        ):
            best_capture = cap
            best_sum = float(x.sum())
    return float(s.sum() - best_capture), best_capture


# ---------------------------------------------------------------------------
# LP relaxation
# ---------------------------------------------------------------------------


def test_free_relaxation_has_zero_bound():
    inst = build_instance([0.5], 1)
    relax = solve_lp_relaxation(inst)
    assert relax.objective_lb == pytest.approx(0.0, abs=1e-9)


def test_relaxation_bound_below_every_schedule():
    rng = np.random.default_rng(1)
    s = rng.uniform(0.1, 1.0, size=4)
    inst = build_instance(s, 2)
    relax = solve_lp_relaxation(inst)
    for assignment in product((0, 1), repeat=8):
        u = np.array(assignment).reshape(2, 4)
        _, capture = best_sizes_for_schedule(inst, combo_index(u))
        assert relax.objective_lb <= s.sum() - capture + 1e-9


def test_fixed_assignment_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        T = int(rng.integers(1, 5))
        n = int(rng.integers(1, 3))
        s = rng.uniform(0.05, 1.0, size=T)
        inst = build_instance(s, n)
        u = rng.integers(0, 2, size=(n, T))
        fixes = {(i, t): int(u[i, t]) for i in range(n) for t in range(T)}
        relax = solve_lp_relaxation(inst, fixes)
        _, capture = best_sizes_for_schedule(inst, combo_index(u))
        assert relax.objective_lb == pytest.approx(s.sum() - capture, abs=1e-8)


def test_reduced_matches_monolithic_and_scipy():
    rng = np.random.default_rng(3)
    for _ in range(12):
        T = int(rng.integers(1, 5))
        n = int(rng.integers(1, 3))
        s = rng.uniform(0.05, 1.0, size=T)
        inst = build_instance(s, n)
        fixes = {}
        for i in range(n):
            for t in range(T):
                r = rng.random()
                if r < 0.25:
                    fixes[(i, t)] = 0
                elif r < 0.5:
                    fixes[(i, t)] = 1
        fast = solve_lp_relaxation(inst, fixes)
        lo = np.zeros((n, T))
        hi = np.ones((n, T))
        for (i, t), v in fixes.items():
            lo[i, t], hi[i, t] = v, v
        # the full-variable big-M LP, solved by scipy, is the reference
        ref = _scipy_relaxation(inst, lo, hi)
        assert fast.objective_lb == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize(
    "fixes",
    [{(0, 0): 0.5}, {(0, 0): 2}, {(1, 0): 1}, {(0, 3): 0}, {(-1, 0): 1}, {(0, -1): 0}],
    ids=["half", "two", "load-out-of-range", "step-out-of-range", "negative-load", "negative-step"],
)
def test_relaxation_rejects_bad_fixes(fixes):
    inst = build_instance([0.3, 0.6, 0.9], 1)
    with pytest.raises(DataError):
        solve_lp_relaxation(inst, fixes)


def _scipy_relaxation(inst, lo, hi):
    n, T = inst.n, inst.horizon
    s = inst.s
    M = float(inst.s.max())
    nv = n + 2 * n * T

    def yc(i, t):
        return n + i * T + t

    def uc(i, t):
        return n + n * T + i * T + t

    rows, rhs = [], []
    for t in range(T):
        row = np.zeros(nv)
        for i in range(n):
            row[yc(i, t)] = 1
        rows.append(row)
        rhs.append(s[t])
    for i in range(n):
        for t in range(T):
            r1 = np.zeros(nv)
            r1[yc(i, t)] = 1
            r1[uc(i, t)] = -M
            rows.append(r1)
            rhs.append(0)
            r2 = np.zeros(nv)
            r2[yc(i, t)] = 1
            r2[i] = -1
            rows.append(r2)
            rhs.append(0)
            r3 = np.zeros(nv)
            r3[yc(i, t)] = -1
            r3[i] = 1
            r3[uc(i, t)] = M
            rows.append(r3)
            rhs.append(M)
    c = np.zeros(nv)
    for i in range(n):
        for t in range(T):
            c[yc(i, t)] = -1
    bounds = [(0, None)] * n + [(0, None)] * (n * T)
    for i in range(n):
        for t in range(T):
            bounds.append((lo[i, t], hi[i, t]))
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert res.status == 0
    return s.sum() + res.fun


# ---------------------------------------------------------------------------
# greedy fill and branching pick
# ---------------------------------------------------------------------------


def loop_fill(inst, x, fixes):
    """The fill one step and one load at a time: loads fixed on take their
    size, then the free loads in index order take what is left."""
    n, T = inst.n, inst.horizon
    fixed_on = np.zeros((n, T), dtype=bool)
    fixed_off = np.zeros((n, T), dtype=bool)
    for (i, t), value in fixes.items():
        (fixed_on if value == 1 else fixed_off)[i, t] = True
    y = np.zeros((n, T))
    for t in range(T):
        budget = inst.s[t]
        for i in np.flatnonzero(fixed_on[:, t]):
            y[i, t] = x[i]
            budget -= x[i]
        for i in np.flatnonzero(~fixed_on[:, t] & ~fixed_off[:, t]):
            if budget <= 0:
                break
            take = min(x[i], budget)
            y[i, t] = take
            budget -= take
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(x[:, None] > 1e-12, y / np.maximum(x[:, None], 1e-300), 0.0)
    u[fixed_on] = 1.0
    u[fixed_off] = 0.0
    return np.clip(u, 0.0, 1.0)


def loop_pick(u, fixes):
    """Most fractional unfixed binary, ties to the lowest (t, i); None if integral."""
    frac = np.minimum(u, 1.0 - u)
    for key in fixes:
        frac[key] = 0.0
    t, i = divmod(int(np.argmax(frac.T)), u.shape[0])
    return (i, t) if frac[i, t] > 1e-9 else None


def random_fill_case(rng):
    """Sizes with exact zeros, 1e-13 and dyadic ties; fixes that fill a step
    exactly or fix every load at a step."""
    n = int(rng.integers(1, 6))
    T = int(rng.integers(1, 9))
    kinds = rng.integers(0, 4, size=n)
    x = np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        [0.0, 1e-13, rng.integers(1, 9, size=n) / 16],
        rng.uniform(0, 1, size=n),
    )
    draw = rng.random((n, T))
    fixes = {(i, t): int(draw[i, t] < 0.2) for i in range(n) for t in range(T) if draw[i, t] < 0.4}
    if rng.random() < 0.5:
        t = int(rng.integers(0, T))
        fixes.update({(i, t): int(rng.integers(0, 2)) for i in range(n)})
    s = np.where(rng.random(T) < 0.5, rng.integers(0, 17, size=T) / 16, rng.uniform(0, 1.2, size=T))
    for t in range(T):
        on = [i for i in range(n) if fixes.get((i, t)) == 1]
        if on and rng.random() < 0.5:
            s[t] = sum(x[i] for i in on)  # the loads fixed on use up s_t exactly
    return build_instance(s, n), x, fixes


def test_greedy_fill_matches_step_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    picks = integral = 0
    for _ in range(400):
        inst, x, fixes = random_fill_case(rng)
        expected = loop_fill(inst, x, fixes)
        assert np.array_equal(_greedy_fill(inst, x, fixes), expected)
        pick = _branch_or_offer(_Evaluator(inst), _Incumbent(), x, fixes)
        assert pick == loop_pick(expected, fixes)
        picks += pick is not None
        integral += pick is None
    assert picks > 50 and integral > 50  # both outcomes ran


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def test_pinned_example_single_load():
    inst = build_instance([0.3, 0.6, 0.9], 1)
    sol = branch_and_bound(inst, gap_tol=0.0)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.6, abs=1e-9)
    assert sol.x[0] == pytest.approx(0.6, abs=1e-9)
    assert sol.u[0].tolist() == [0, 1, 1]


def test_solution_stores_combo_indices_and_derives_u_and_y():
    inst = build_instance([0.3, 0.6, 0.9, 0.45], 2)
    sol = branch_and_bound(inst, gap_tol=0.0)
    assert sol.combo_index.shape == (4,)
    assert np.array_equal(sol.u, combo_states(sol.combo_index, 2))
    assert np.array_equal(sol.y, sol.u * sol.x[:, None])


def test_pinned_example_two_loads():
    inst = build_instance([0.3, 0.6, 0.9], 2)
    sol = branch_and_bound(inst, gap_tol=0.0)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert np.sort(sol.x)[::-1] == pytest.approx([0.6, 0.3], abs=1e-9)


def test_constant_profile_perfect_tracking():
    inst = build_instance([0.7, 0.7, 0.7, 0.7], 2)
    sol = branch_and_bound(inst, gap_tol=0.0)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    draws = sol.x @ sol.u
    assert draws == pytest.approx([0.7] * 4, abs=1e-9)


def test_oversizing_tie_break():
    inst = build_instance([0.5, 1.0], 1)
    sol = branch_and_bound(inst, gap_tol=0.0)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-9)  # not the x = 1.0 tie


def test_exactness_random_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        T = int(rng.integers(1, 7 if n == 2 else 10))
        s = np.round(rng.uniform(0.05, 1.0, size=T), 3)
        inst = build_instance(s, n)
        sol = branch_and_bound(inst, gap_tol=0.0)
        oracle_obj, _ = exhaustive_optimum(s, n)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle_obj, abs=1e-9)
        # big-M coupling invariant
        assert np.abs(sol.y - sol.u * sol.x[:, None]).max() <= 1e-6
        assert (sol.y.sum(axis=0) <= s + 1e-9).all()
        assert sol.objective == pytest.approx(s.sum() - sol.y.sum(), abs=1e-9)


def test_order_invariance():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.1, 1.0, size=6)
    inst1 = build_instance(s, 2)
    inst2 = build_instance(np.sort(s), 2)
    sol1 = branch_and_bound(inst1, gap_tol=0.0)
    sol2 = branch_and_bound(inst2, gap_tol=0.0)
    assert sol1.objective == pytest.approx(sol2.objective, abs=1e-9)


def test_node_limit_status_and_feasibility():
    rng = np.random.default_rng(13)
    s = rng.uniform(0.05, 1.0, size=40)
    inst = build_instance(s, 3)
    sol = branch_and_bound(inst, gap_tol=0.0, node_limit=5)
    assert sol.status == "node_limit"
    assert sol.gap >= 0
    assert (sol.y.sum(axis=0) <= s + 1e-9).all()


def test_node_limit_gap_stays_within_unit_interval(year_series):
    # on the year at ratio 200 the root LP bound rounds to -7.1e-15; a
    # mismatch is never negative, so the relative gap must not exceed 1
    reduced = downsample_uniform(sort_ascending(year_series, remove_zeros=False), 200)
    inst = build_instance(reduced.values, 3)
    sol = branch_and_bound(inst, gap_tol=1e-6, node_limit=200)
    assert sol.status == "node_limit"
    assert 0.0 <= sol.gap <= 1.0


def test_more_than_twenty_loads_refused():
    inst = build_instance([0.3, 0.6, 0.9], 21)
    with pytest.raises(DataError, match=r"need 1\.\.20 loads, got 21"):
        branch_and_bound(inst)


def test_vertex_oracle_matches_schedule_enumeration():
    """Validate the candidate-vertex oracle against brute schedule search,
    with the per-schedule sizing LP solved by scipy for independence."""
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        T = int(rng.integers(1, 5 if n == 2 else 8))
        s = np.round(rng.uniform(0.05, 1.0, size=T), 3)
        best = 0.0
        for assignment in product((0, 1), repeat=n * T):
            u = np.array(assignment).reshape(n, T)
            counts = u.sum(axis=1).astype(float)
            rows, rhs = [], []
            for t in range(T):
                pattern = np.flatnonzero(u[:, t])
                if pattern.size:
                    row = np.zeros(n)
                    row[pattern] = 1.0
                    rows.append(row)
                    rhs.append(s[t])
            if rows:
                res = linprog(
                    -counts, A_ub=np.vstack(rows), b_ub=np.array(rhs),
                    bounds=(0, None), method="highs",
                )
                if res.status == 0:
                    best = max(best, -res.fun)
        oracle_obj, oracle_capture = exhaustive_optimum(s, n)
        assert oracle_capture == pytest.approx(best, abs=1e-8)
        assert oracle_obj == pytest.approx(s.sum() - best, abs=1e-8)


@pytest.mark.parametrize("gap_tol", [-1e-9, float("nan")], ids=["negative", "nan"])
def test_bad_gap_tol_refused(gap_tol):
    inst = build_instance(np.round(np.random.default_rng(1).uniform(0.05, 1.0, 6), 4), 2)
    with pytest.raises(DataError, match="gap_tol must be >= 0"):
        branch_and_bound(inst, gap_tol=gap_tol)


@pytest.mark.parametrize("n", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
def test_build_instance_refuses_a_non_integer_n(n):
    with pytest.raises(DataError, match="n must be an integer"):
        build_instance([0.3, 0.6, 0.9], n)


@pytest.mark.parametrize(
    "s, n, message",
    [
        ([0.3, 0.6, 0.9], 2.5, "n must be an integer"),
        ([0.3, 0.6, 0.9], True, "n must be an integer"),
        ([0.3, -0.6, 0.9], 1, "finite and >= 0"),
        ([0.3, np.nan, 0.9], 1, "finite and >= 0"),
        ([], 1, "at least one sample"),
    ],
    ids=["fraction", "bool", "negative", "nan", "empty"],
)
def test_milp_instance_refuses_a_bad_instance(s, n, message):
    """The instance checks itself, so one built directly never reaches
    branch and bound."""
    with pytest.raises(DataError, match=message):
        MilpInstance(s=s, n=n)


def test_milp_instance_stores_a_numpy_integer_n_as_int():
    inst = MilpInstance(s=[0.3, 0.6, 0.9], n=np.int64(2))
    assert inst.n == 2 and type(inst.n) is int


def test_build_instance_takes_a_numpy_integer_n():
    inst = build_instance([0.3, 0.6, 0.9], np.int64(2))
    assert inst.n == 2 and type(inst.n) is int
    sol = branch_and_bound(inst, gap_tol=0.0)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_a_tree_evaluates_each_schedule_and_sizing_once(monkeypatch):
    """Within one call no schedule is sized twice and no sizing dispatched
    twice; a second call repeats the first call's evaluations and answer,
    so nothing carries over between calls."""
    sized, dispatched = [], []

    def sizes(instance, combo):
        sized.append(combo.tobytes())
        return best_sizes_for_schedule(instance, combo)

    def capture(values, x):
        dispatched.append(x.tobytes())
        return capture_best(values, x)

    monkeypatch.setattr(bnb, "best_sizes_for_schedule", sizes)
    monkeypatch.setattr(bnb, "capture_best", capture)
    inst = build_instance(np.round(np.random.default_rng(1).uniform(0.05, 1.0, 4), 4), 3)
    calls, answers = [], []
    for _ in range(2):
        sized.clear()
        dispatched.clear()
        sol = branch_and_bound(inst, gap_tol=0.0)
        assert len(set(sized)) == len(sized) > 100
        assert len(set(dispatched)) == len(dispatched) > 100
        calls.append((list(sized), list(dispatched)))
        answers.append((sol.x.tobytes(), sol.combo_index.tobytes(), repr(sol.objective)))
        assert sol.x.flags.writeable and sol.combo_index.flags.writeable
    assert calls[0] == calls[1]
    assert answers[0] == answers[1]


@pytest.mark.parametrize(
    "n, T, nodes, objective, x_hex",
    [
        (2, 6, 45, "0.4322999999999997", "b9af03e78c28e13f4703780b2428d63f"),
        (2, 7, 129, "0.5706000000000002", "2141f163cc5ddf3f4703780b2428d63f"),
        (3, 4, 363, "0.0016999999999995907", "b8af03e78c28e13fc876be9f1a2fcd3f560e2db29defc73f"),
    ],
)
def test_deep_trees_keep_their_work_and_answer(n, T, nodes, objective, x_hex):
    """The deep tree shapes of the benchmark's MILP batch: a change that
    reorders the tree moves the node count or the bytes of the answer."""
    s = np.round(np.random.default_rng(1).uniform(0.05, 1.0, T), 4)
    sol = branch_and_bound(build_instance(s, n), gap_tol=0.0)
    assert sol.status == "optimal"
    assert sol.nodes_explored == nodes
    assert repr(sol.objective) == objective
    assert sol.x.tobytes().hex() == x_hex


@pytest.mark.parametrize("zero_row", [0, 1, 2])
def test_dispatch_keeps_zero_size_load_off(zero_row):
    rng = np.random.default_rng(11 + zero_row)
    s = np.sort(rng.uniform(0.05, 1.0, size=40))
    positive = np.array([0.41, 0.23])
    x = np.insert(positive, zero_row, [0.0])
    x_tiny = np.insert(positive, zero_row, [1e-13])
    inst = build_instance(s, 3)
    combo, capture = _dispatch(inst, x)
    u = combo_states(combo, 3)
    assert not u[zero_row].any()
    alone_combo, alone_capture = _dispatch(build_instance(s, 2), positive)
    alone_u = combo_states(alone_combo, 2)
    assert np.array_equal(np.delete(u, zero_row, axis=0), alone_u)
    assert capture == alone_capture
    tiny_combo, tiny_capture = _dispatch(inst, x_tiny)  # sizes <= 1e-12 count as zero
    tiny_u = combo_states(tiny_combo, 3)
    assert np.array_equal(tiny_u, u) and tiny_capture == capture


@pytest.mark.parametrize("no_load", [0.0, 1e-13], ids=["zero", "tiny"])
@pytest.mark.parametrize("zero_row", [0, 1, 2])
def test_capture_best_keeps_a_no_load_size_off(zero_row, no_load):
    """A size at or below ``NO_LOAD_SIZE`` gives the draws of the sizes
    without it, byte for byte, and is never switched on."""
    rng = np.random.default_rng(3 + zero_row)
    positive = np.array([0.41, 0.23])
    x = np.insert(positive, zero_row, [no_load])
    unsorted = rng.uniform(0.0, 1.0, size=60)
    for values in (np.sort(unsorted), unsorted):
        draws, masks = capture_best(values, x)
        alone, _ = capture_best(values, positive)
        assert draws.tobytes() == alone.tobytes()
        assert not combo_states(masks, 3)[zero_row].any()


def test_dispatch_all_zero_sizes_is_all_off():
    inst = build_instance([0.2, 0.5, 0.9], 2)
    combo, capture = _dispatch(inst, np.zeros(2))
    u = combo_states(combo, 2)
    assert u.shape == (2, 3) and not u.any() and capture == 0.0


def test_downsample_sweep_rows():
    rng = np.random.default_rng(17)
    values = np.sort(rng.uniform(0.01, 1.0, size=400))
    series = SortedSeries(values=values)
    rows = downsample_sweep(series, 2, ratios=[4, 8], node_limit=30)
    assert [r.ratio for r in rows] == [4, 8]
    assert all(0 <= r.solar_utilization <= 1 for r in rows)
    assert rows[0].nodes_explored >= rows[1].nodes_explored
