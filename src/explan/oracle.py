"""Brute-force oracles for validating the planner and the explainers.

These deliberately avoid the planner's code paths: states are frozensets,
there are no tie-breaks, and results are *sets* of plans.  The bench harness
attaches oracle columns on instances small enough for the guards.
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


def enumerate_optimal_plans(
    model: GroundedModel,
    init: frozenset[int],
    goal: frozenset[int],
    max_cost: int | None,
    max_count: int = 100_000,
) -> PlanSet | Overflow:
    """Exhaustively enumerate every minimum-cost plan of cost <= ``max_cost``.

    First computes cheapest-arrival costs for all states reachable within
    the bound, then walks every cost-tight action sequence; with positive
    action costs this produces exactly the optimal plan set.  ``max_cost``
    None explores the entire reachable space (small instances only).
    """
    if max_cost is not None and max_cost < 0:
        raise ValueError("max_cost must be >= 0")

    dist: dict[frozenset[int], int] = {init: 0}
    heap: list[tuple[int, int, frozenset[int]]] = [(0, 0, init)]
    tie = count(1)
    best_goal: int | None = None
    while heap:
        d, _, state = heappop(heap)
        if d > dist.get(state, -1):
            continue
        if goal <= state and (best_goal is None or d < best_goal):
            best_goal = d
        for action in model.actions:
            if action.pre <= state:
                nd = d + action.cost
                if max_cost is not None and nd > max_cost:
                    continue
                nstate = _apply(action, state)
                if nd < dist.get(nstate, nd + 1):
                    dist[nstate] = nd
                    heappush(heap, (nd, next(tie), nstate))

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


def _simulate_cost(model: GroundedModel, init: frozenset[int],
                   goal: frozenset[int], actions: tuple[int, ...]) -> int | None:
    state = init
    total = 0
    for aid in actions:
        action = model.actions[aid]
        if not action.pre <= state:
            return None
        state = _apply(action, state)
        total += action.cost
    return total if goal <= state else None


def _is_complete(problem: "ReconciliationProblem", delta: FeatureSet) -> bool:
    updated = apply_features(problem.human_model, delta)
    plan_cost = _simulate_cost(updated, problem.init, problem.goal,
                               problem.robot_plan.actions)
    if plan_cost is None:
        return False
    found = enumerate_optimal_plans(updated, problem.init, problem.goal,
                                    max_cost=plan_cost)
    assert isinstance(found, PlanSet)
    return found.cost == plan_cost


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
