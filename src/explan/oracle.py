"""Brute-force oracles for validating the planner and the explainers.

These deliberately avoid the planner's code paths: states are frozensets
and there are no tie-breaks.  One uniform-cost search, which stops when the
first goal state is popped, gives a task's optimal cost and the cost of
every state cheaper than it.  The bench harness cross-checks explanations
from those costs alone; enumerating the full set of optimal plans over the
same search remains for the tests and ``optimal_plans_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, count
from typing import TYPE_CHECKING

from .errors import GuardExceeded
from .model import FeatureSet, GroundedModel, apply_features

if TYPE_CHECKING:  # pragma: no cover
    from .reconcile import ReconciliationProblem


@dataclass(frozen=True)
class PlanSet:
    """All optimal plans of a task (empty if the goal is unreachable in bound)."""

    plans: frozenset[tuple[int, ...]]
    cost: int | None


@dataclass(frozen=True)
class Overflow:
    """More optimal plans exist than the caller allowed; shrink the instance."""

    limit: int


def _apply(action, state: frozenset[int]) -> frozenset[int]:
    return (state - action.delete) | action.add


def _search(
    model: GroundedModel,
    init: frozenset[int],
    goal: frozenset[int],
    max_cost: int | None,
) -> tuple[dict[frozenset[int], int], int | None]:
    """Cheapest-arrival costs within ``max_cost``, and the optimal cost.

    Dijkstra with no tie-break that stops when the first goal state is
    popped.  Action costs are at least 1, so by then every state cheaper
    than the optimum is settled and every state at the optimum already
    holds its cost.  The optimal cost is None when no goal state is
    reachable within the bound.
    """
    if max_cost is not None and max_cost < 0:
        raise ValueError("max_cost must be >= 0")

    dist: dict[frozenset[int], int] = {init: 0}
    heap: list[tuple[int, int, frozenset[int]]] = [(0, 0, init)]
    tie = count(1)
    while heap:
        d, _, state = heappop(heap)
        if d > dist[state]:
            continue
        if goal <= state:
            return dist, d
        for action in model.actions:
            if action.pre <= state:
                nd = d + action.cost
                if max_cost is not None and nd > max_cost:
                    continue
                nstate = _apply(action, state)
                if nd < dist.get(nstate, nd + 1):
                    dist[nstate] = nd
                    heappush(heap, (nd, next(tie), nstate))
    return dist, None


def optimal_cost(model: GroundedModel, init: frozenset[int],
                 goal: frozenset[int], max_cost: int | None = None) -> int | None:
    """The optimal cost of reaching ``goal``, or None if it exceeds ``max_cost``."""
    return _search(model, init, goal, max_cost)[1]


def enumerate_optimal_plans(
    model: GroundedModel,
    init: frozenset[int],
    goal: frozenset[int],
    max_cost: int | None,
    max_count: int = 100_000,
) -> PlanSet | Overflow:
    """Exhaustively enumerate every minimum-cost plan of cost <= ``max_cost``.

    Walks every action sequence that stays cost-tight over ``_search``'s
    costs; with positive action costs this produces exactly the optimal
    plan set.  ``max_cost`` None leaves the search unbounded (small
    instances only).
    """
    dist, best_goal = _search(model, init, goal, max_cost)
    if best_goal is None:
        return PlanSet(plans=frozenset(), cost=None)

    # enumerate all action sequences staying cost-tight at every state
    plans: set[tuple[int, ...]] = set()
    stack: list[tuple[frozenset[int], int, tuple[int, ...]]] = [(init, 0, ())]
    budget = max(1_000_000, 10 * max_count)
    while stack:
        budget -= 1
        if budget < 0:
            return Overflow(limit=max_count)
        state, d, seq = stack.pop()
        if d == best_goal:
            if goal <= state:
                plans.add(seq)
                if len(plans) > max_count:
                    return Overflow(limit=max_count)
            continue
        for aid, action in enumerate(model.actions):
            if action.pre <= state:
                nd = d + action.cost
                if nd > best_goal:
                    continue
                nstate = _apply(action, state)
                if dist.get(nstate, nd + 1) == nd:
                    stack.append((nstate, nd, seq + (aid,)))

    return PlanSet(plans=frozenset(plans), cost=best_goal)


def _run(model: GroundedModel, init: frozenset[int],
         actions: tuple[int, ...]) -> tuple[frozenset[int], int] | None:
    """The state and cost that ``actions`` reach, or None if one is inapplicable."""
    state = init
    total = 0
    for aid in actions:
        action = model.actions[aid]
        if not action.pre <= state:
            return None
        state = _apply(action, state)
        total += action.cost
    return state, total


def starts_optimal_plan(model: GroundedModel, init: frozenset[int],
                        goal: frozenset[int], prefix: tuple[int, ...]) -> bool:
    """Whether some optimal plan begins with ``prefix``, from optimal costs.

    It does exactly when ``prefix`` runs to a state ``s`` at cost ``c`` and
    ``c`` plus the optimal cost from ``s`` is the optimal cost from
    ``init``.  Action costs are at least 1, so a prefix that reaches the
    goal starts an optimal plan only by being one.
    """
    reached = _run(model, init, prefix)
    if reached is None:
        return False
    state, cost = reached
    if goal <= state:
        return optimal_cost(model, init, goal, cost) == cost
    best = optimal_cost(model, init, goal)
    if best is None or best < cost:
        return False
    return optimal_cost(model, state, goal, best - cost) == best - cost


def _simulate_cost(model: GroundedModel, init: frozenset[int],
                   goal: frozenset[int], actions: tuple[int, ...]) -> int | None:
    reached = _run(model, init, actions)
    return reached[1] if reached is not None and goal <= reached[0] else None


def _is_complete(problem: "ReconciliationProblem", delta: FeatureSet) -> bool:
    """The robot plan is a plan of the updated human model at its optimal cost."""
    updated = apply_features(problem.human_model, delta)
    plan_cost = _simulate_cost(updated, problem.init, problem.goal,
                               problem.robot_plan.actions)
    return (plan_cost is not None
            and optimal_cost(updated, problem.init, problem.goal, plan_cost) == plan_cost)


def robot_plan_is_optimal(problem: "ReconciliationProblem", extra: FeatureSet,
                          *, as_prefix: bool = False) -> bool:
    """Whether the robot plan is an optimal plan of the human model plus ``extra``.

    With ``as_prefix``, whether some optimal plan of that model starts with
    the robot plan.  Both answers come from optimal costs, with no plan set.
    """
    if not as_prefix:
        return _is_complete(problem, extra)
    updated = apply_features(problem.human_model, extra)
    return starts_optimal_plan(updated, problem.init, problem.goal,
                               problem.robot_plan.actions)


def min_complete_subsets(problem: "ReconciliationProblem") -> list[FeatureSet]:
    """All minimum-cardinality complete feature subsets, by direct enumeration.

    Complete means: after adding the subset to the human model, the robot's
    plan costs exactly the optimal cost of the updated model.
    """
    missing = problem.missing
    if len(missing) > 20:
        raise GuardExceeded(f"feature diff has {len(missing)} entries; limit is 20")
    feats = tuple(missing)
    for k in range(len(feats) + 1):
        hits = [FeatureSet(combo) for combo in combinations(feats, k)
                if _is_complete(problem, FeatureSet(combo))]
        if hits:
            return hits
    return []


def optimal_plans_of(problem: "ReconciliationProblem", extra: FeatureSet) -> PlanSet | Overflow:
    """Optimal plans of the human model after adding ``extra`` features.

    When the robot plan still validates under the updated model its cost
    caps the search; otherwise the full reachable space is explored.
    """
    updated = apply_features(problem.human_model, extra)
    reference = _simulate_cost(updated, problem.init, problem.goal,
                               problem.robot_plan.actions)
    return enumerate_optimal_plans(updated, problem.init, problem.goal,
                                   max_cost=reference)
