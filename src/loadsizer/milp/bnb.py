"""Best-first branch and bound on the LP relaxation bounds.

Nodes branch on the most fractional binary of the greedy fill of their
relaxation's sizes (``_greedy_fill``), picked once per node; every node
also feeds a rounding-plus-repair heuristic (alternate
best schedule given sizes with best sizes given schedule) that supplies
incumbents long before the bounds close. Among equal-mismatch incumbents
the smaller total size wins, and the returned sizes are polished by a
final minimum-total-size solve at fixed capture, so ties never oversize.

Nodes meet the same schedules and sizings again and again, so one tree
sizes each distinct schedule and dispatches each distinct sizing once:
``branch_and_bound`` keeps a memo of both (``_Evaluator``) for as long as
the call runs, and nothing carries over to the next call.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..dispatch import NO_LOAD_SIZE, capture_best, combo_index, combo_states
from ..errors import DataError, NumericError, integer
from .instance import MilpInstance
from .relaxation import solve_lp_relaxation
from .simplex import solve_lp

_OBJ_TOL = 1e-9
_EQ_TOL = 1e-12


@dataclass
class MilpSolution:
    x: np.ndarray = field(repr=False)
    combo_index: np.ndarray = field(repr=False)  # (T,) schedule, encoded as in ``dispatch``
    objective: float = np.nan  # total mismatch sum(s) - sum(y)
    gap: float = np.nan
    nodes_explored: int = 0
    status: str = "optimal"  # optimal | gap_limit | node_limit

    @property
    def u(self) -> np.ndarray:
        """(n, T) binary schedule, decoded from ``combo_index``."""
        return combo_states(self.combo_index, self.x.size)

    @property
    def y(self) -> np.ndarray:
        """Committed demand per load and step: the load's size where it is on."""
        return self.u * self.x[:, None]


def best_sizes_for_schedule(instance: MilpInstance, combo: np.ndarray) -> tuple[np.ndarray, float]:
    """LP over sizes only: maximize capture for a fixed schedule, given as
    its combo index per step.

    Among capture-optimal size vectors the one with the smallest total is
    returned (lexicographic second solve), which keeps never-used loads at
    zero size.
    """
    n = instance.n
    # one row per pattern in order of first use, capped by its lowest sample
    patterns, first_use, which = np.unique(combo, return_index=True, return_inverse=True)
    counts = (combo_states(patterns, n) @ np.bincount(which)).astype(float)  # steps on, per load
    rhs = np.full(patterns.size, np.inf)
    np.minimum.at(rhs, which, instance.s)
    order = np.argsort(first_use)
    order = order[patterns[order] > 0]  # the all-off pattern caps nothing
    if order.size == 0:
        return np.zeros(n), 0.0
    rows = combo_states(patterns[order], n).T
    rhs = rhs[order]
    first = solve_lp(-counts, a_ub=rows, b_ub=rhs)
    if not first.ok:
        raise NumericError(f"size LP came back {first.status}")
    capture = -first.fun
    # second pass: minimal total size at the optimal capture
    second = solve_lp(
        np.ones(n),
        a_ub=rows,
        b_ub=rhs,
        a_eq=counts[None, :],
        b_eq=[capture],
    )
    x = second.x if second.ok else first.x
    return np.maximum(x, 0.0), float(capture)


def _dispatch(instance: MilpInstance, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Best schedule for sizes ``x``, as combo indices, and its capture;
    ``capture_best`` keeps a size at or below ``NO_LOAD_SIZE`` off."""
    draws, masks = capture_best(instance.s, x)
    return masks, float(draws.sum())


class _Evaluator:
    """One tree's instance and its memo: each distinct schedule is sized
    (``best_sizes_for_schedule``) and each distinct sizing dispatched
    (``_dispatch``) once. Both are pure, so a repeat gets the first call's
    arrays, made read-only. The memo lives as long as one
    ``branch_and_bound`` call."""

    def __init__(self, instance: MilpInstance) -> None:
        self.instance = instance
        self._sized: dict[bytes, tuple[np.ndarray, float]] = {}
        self._dispatched: dict[bytes, tuple[np.ndarray, float]] = {}

    def sizes(self, combo: np.ndarray) -> tuple[np.ndarray, float]:
        """``best_sizes_for_schedule`` of the combo-index schedule."""
        key = combo.tobytes()
        if key not in self._sized:
            x, capture = best_sizes_for_schedule(self.instance, combo)
            x.flags.writeable = False
            self._sized[key] = (x, capture)
        return self._sized[key]

    def dispatch(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """``_dispatch`` of the sizes ``x``."""
        key = np.asarray(x, dtype=float).tobytes()
        if key not in self._dispatched:
            combo, capture = _dispatch(self.instance, x)
            combo.flags.writeable = False
            self._dispatched[key] = (combo, capture)
        return self._dispatched[key]


def _repair(tree: _Evaluator, x_start: np.ndarray, rounds: int = 4):
    """Alternate dispatch (best u given x) and sizing (best x given u).

    Rounds that meet a schedule or sizing the tree has seen take its
    evaluation from the tree's memo, so they cost no LP and no dispatch.
    """
    x = np.asarray(x_start, dtype=float).copy()
    best = None
    for _ in range(rounds):
        if not (x > NO_LOAD_SIZE).any():
            break
        combo, _ = tree.dispatch(x)
        x_new, capture = tree.sizes(combo)
        if best is None or capture > best[1] + _EQ_TOL:
            best = (x_new, capture)
        if np.abs(x_new - x).max() < 1e-12:
            break
        x = x_new
    if best is None:
        return None
    # re-dispatch the polished sizes so the schedule is the best one for them
    x = best[0]
    combo, capture = tree.dispatch(x)
    return x, combo, tree.instance.total_power - capture


def _coordinate_polish(tree: _Evaluator, x_start: np.ndarray) -> np.ndarray:
    """Deterministic coordinate search on the sizes, scored by dispatch."""
    x = np.asarray(x_start, dtype=float).copy()
    best = tree.dispatch(x)[1]
    peak = float(tree.instance.s.max())
    step = peak / 8.0
    while step > peak / 1024.0:
        improved = False
        for i in range(x.size):
            for delta in (step, -step):
                trial = x.copy()
                trial[i] = min(max(trial[i] + delta, 0.0), peak)
                cap = tree.dispatch(trial)[1]
                if cap > best + 1e-12:
                    x, best = trial, cap
                    improved = True
        if not improved:
            step /= 2.0
    return x


def _root_candidates(instance: MilpInstance, x_lp: np.ndarray) -> list[np.ndarray]:
    s_pos = np.sort(instance.s[instance.s > 0])
    n = instance.n
    candidates = [np.asarray(x_lp, dtype=float)]
    if s_pos.size == 0:
        return candidates
    quantiles = np.quantile(s_pos, [0.3, 0.5, 0.7, 0.85, 0.95])
    for q in quantiles:
        geo = q * (0.5 ** np.arange(n))
        candidates.append(geo)
        candidates.append(np.full(n, q / n))
    return candidates


class _Incumbent:
    def __init__(self) -> None:
        self.objective = np.inf
        self.sum_x = np.inf
        self.x: np.ndarray | None = None
        self.combo: np.ndarray | None = None

    def offer(self, x, combo, objective) -> bool:
        better = objective < self.objective - _EQ_TOL
        tie_smaller = (
            abs(objective - self.objective) <= _EQ_TOL and x.sum() < self.sum_x - _EQ_TOL
        )
        if better or tie_smaller:
            self.objective = float(objective)
            self.sum_x = float(x.sum())
            self.x = np.asarray(x, dtype=float).copy()
            self.combo = np.array(combo, copy=True)
            return True
        return False


def _greedy_fill(instance: MilpInstance, x: np.ndarray, fixes) -> np.ndarray:
    """Fractional (n, T) schedule: sizes ``x`` fill each ``s_t`` greedily,
    loads fixed on first, then the free ones by index, each taking what is
    left up to its size (fixed loads count 1 or 0). What is left comes from
    one subtraction per load in that order, fixed-off loads subtracting 0."""
    fixed_on, fixed_off = instance.fix_masks(fixes)
    order = np.argsort(~fixed_on, axis=0, kind="stable")
    draws = np.take_along_axis(np.where(fixed_off, 0.0, x[:, None]), order, axis=0)
    left = np.subtract.accumulate(np.vstack([instance.s, draws]), axis=0)
    before = np.empty_like(draws)
    np.put_along_axis(before, order, left[:-1], axis=0)
    taken = np.clip(before, 0.0, x[:, None]) / np.maximum(x, 1e-300)[:, None]
    u = np.where(x[:, None] > NO_LOAD_SIZE, taken, 0.0)
    u[fixed_on] = 1.0
    u[fixed_off] = 0.0
    return u


def _branch_or_offer(
    tree: _Evaluator, incumbent: _Incumbent, x: np.ndarray, fixes
) -> tuple[int, int] | None:
    """The most fractional binary ``(i, t)`` of the greedy fill of the node's
    sizes ``x``; fixed binaries are 0 or 1 there, so never picked.

    Ties go to the lowest ``(t, i)``. If every binary is within 1e-9 of
    integral, the rounded fill is sized and offered to the incumbent, and
    None is returned.
    """
    u = _greedy_fill(tree.instance, x, fixes)
    frac = np.minimum(u, 1.0 - u)
    t_pick, i_pick = divmod(int(np.argmax(frac.T)), tree.instance.n)
    if frac[i_pick, t_pick] > 1e-9:
        return i_pick, t_pick
    combo = combo_index(np.rint(u))
    x, capture = tree.sizes(combo)
    incumbent.offer(x, combo, tree.instance.total_power - capture)
    return None


def branch_and_bound(
    instance: MilpInstance,
    gap_tol: float = 1e-6,
    node_limit: int = 100_000,
) -> MilpSolution:
    """Best-first search with LP bounds, most-fractional branching and
    rounding-plus-repair incumbents.

    Terminates when the relative gap ``(incumbent - bound) / max(1e-9,
    incumbent)`` reaches ``gap_tol``, when the node limit is hit, or when
    the tree is exhausted (exact optimum).
    """
    if not gap_tol >= 0:  # NaN included
        raise DataError("gap_tol must be >= 0")
    node_limit = integer(node_limit, "node_limit", 1)
    n, T = instance.n, instance.horizon
    tree = _Evaluator(instance)
    incumbent = _Incumbent()

    root = solve_lp_relaxation(instance)
    nodes_explored = 1
    for candidate in _root_candidates(instance, root.x):
        repaired = _repair(tree, candidate)
        if repaired is not None:
            incumbent.offer(*repaired)
    if incumbent.x is not None:
        polished = _repair(tree, _coordinate_polish(tree, incumbent.x), rounds=1)
        if polished is not None:
            incumbent.offer(*polished)

    counter = itertools.count()
    root_pick = _branch_or_offer(tree, incumbent, root.x, {})
    heap = [(root.objective_lb, next(counter), {}, root_pick)]
    status = "node_limit"

    def relative_gap(bound: float) -> float:
        if incumbent.objective is np.inf:
            return np.inf
        return (incumbent.objective - bound) / max(1e-9, incumbent.objective)

    best_bound = root.objective_lb
    while heap:
        bound, _, fixes, pick = heapq.heappop(heap)
        best_bound = bound
        if incumbent.x is not None and bound >= incumbent.objective - _OBJ_TOL:
            status = "optimal"
            break
        if incumbent.x is not None and relative_gap(bound) <= gap_tol:
            status = "optimal" if gap_tol <= _EQ_TOL else "gap_limit"
            break
        if nodes_explored >= node_limit:
            status = "node_limit"
            break

        if pick is None:
            continue

        for value in (1, 0):
            child_fixes = {**fixes, pick: value}
            child = solve_lp_relaxation(instance, child_fixes)
            nodes_explored += 1
            repaired = _repair(tree, child.x, rounds=2)
            if repaired is not None:
                incumbent.offer(*repaired)
            child_pick = _branch_or_offer(tree, incumbent, child.x, child_fixes)
            if incumbent.x is None or child.objective_lb < incumbent.objective - _OBJ_TOL:
                heapq.heappush(heap, (child.objective_lb, next(counter), child_fixes, child_pick))
    else:
        status = "optimal"
        best_bound = incumbent.objective if incumbent.x is not None else best_bound

    if incumbent.x is None:
        # no feasible incumbent ever produced: fall back to everything off
        incumbent.offer(np.zeros(n), np.zeros(T, dtype=np.int64), instance.total_power)
    # a mismatch is never negative, so a rounded-below-zero bound counts as 0
    lower = max(best_bound, 0.0)
    gap = max(0.0, (incumbent.objective - lower) / max(1e-9, incumbent.objective))
    if status == "optimal":
        gap = 0.0
    return MilpSolution(
        x=incumbent.x,
        combo_index=incumbent.combo,
        objective=incumbent.objective,
        gap=gap,
        nodes_explored=nodes_explored,
        status=status,
    )

