from __future__ import annotations

import os
import random
import subprocess
import sys
from heapq import heappop, heappush
from itertools import combinations, count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import explan
from explan import fixture_path
from explan.bench import SuiteConfig, _oracle_check, load_problem, run_method
from explan.errors import GuardExceeded
from explan.model import FeatureSet, apply_features
from explan.oracle import (
    Overflow,
    PlanSet,
    _is_complete,
    enumerate_optimal_plans,
    min_complete_subsets,
    optimal_cost,
    optimal_plans_of,
    robot_plan_is_optimal,
    starts_optimal_plan,
)
from explan.planner import plan_optimal
from explan.reconcile import ReconciliationProblem, mce

from test_planner import random_model, static_fact_model
from test_random_problems import _random_problem


def test_goal_in_init_enumerates_empty_plan(minirover):
    found = enumerate_optimal_plans(minirover.robot_model, minirover.goal,
                                    minirover.goal, max_cost=0)
    assert found == PlanSet(plans=frozenset({()}), cost=0)


def test_tieworld_human_has_two_optima(tieworld):
    found = enumerate_optimal_plans(tieworld.human_model, tieworld.init,
                                    tieworld.goal, max_cost=2)
    assert isinstance(found, PlanSet)
    assert found.cost == 2
    names = {tuple(tieworld.human_model.actions[a].name for a in p)
             for p in found.plans}
    assert names == {("walk",), ("bike",)}


def test_minirover_single_optimum(minirover):
    found = enumerate_optimal_plans(minirover.robot_model, minirover.init,
                                    minirover.goal, max_cost=3)
    assert isinstance(found, PlanSet)
    assert found.plans == {minirover.robot_plan.actions}


def test_max_cost_bound_respected(minirover):
    found = enumerate_optimal_plans(minirover.robot_model, minirover.init,
                                    minirover.goal, max_cost=2)
    assert found == PlanSet(plans=frozenset(), cost=None)


def test_overflow_on_tiny_count(barman):
    found = enumerate_optimal_plans(barman.robot_model, barman.init, barman.goal,
                                    max_cost=9, max_count=2)
    assert isinstance(found, Overflow)


def test_min_complete_subsets_identical_models(minirover):
    same = ReconciliationProblem.build(
        robot_model=minirover.robot_model, human_model=minirover.robot_model,
        init=minirover.init, goal=minirover.goal)
    assert min_complete_subsets(same) == [FeatureSet()]


def test_min_complete_subsets_minirover(minirover):
    subsets = min_complete_subsets(minirover)
    assert [s.names() for s in subsets] == [["take-image-has-precondition-calibrated"]]


def test_min_complete_subsets_minirover2_unique_pair(minirover2):
    subsets = min_complete_subsets(minirover2)
    assert len(subsets) == 1
    assert len(subsets[0]) == 2


def test_guard_rejects_wide_diffs(minirover):
    class Wide:
        missing = FeatureSet()

    wide = Wide()
    wide.missing = _fake_wide_feature_set()
    with pytest.raises(GuardExceeded):
        min_complete_subsets(wide)


def _fake_wide_feature_set():
    from explan.model import ModelFeature

    return FeatureSet(ModelFeature(f"a{i}", "precondition", "f") for i in range(21))


def test_mce_member_of_min_complete_subsets(all_problems):
    for name, problem in all_problems.items():
        subsets = min_complete_subsets(problem)
        assert mce(problem) in subsets, name


def test_planner_plan_is_an_enumerated_optimum(all_problems):
    for name, problem in all_problems.items():
        for model in (problem.robot_model, problem.human_model):
            plan = plan_optimal(model, problem.init, problem.goal)
            found = enumerate_optimal_plans(model, problem.init, problem.goal,
                                            max_cost=plan.cost)
            assert isinstance(found, PlanSet), name
            assert found.cost == plan.cost, name
            assert plan.actions in found.plans, name


def test_optimal_plans_of_caps_by_robot_plan(minirover):
    found = optimal_plans_of(minirover, minirover.missing)
    assert isinstance(found, PlanSet)
    assert found.plans == {minirover.robot_plan.actions}


def test_importing_the_oracle_loads_no_planner_code():
    # the oracle checks the planner and the explainers, so it must not share
    # their code; a fresh interpreter shows what its import pulls in
    src = str(Path(explan.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, explan.oracle; print(*(m for m in sys.modules if m.startswith('explan')))"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "explan.oracle" in loaded
    assert not loaded & {"explan.planner", "explan.reconcile", "explan.grounding"}, loaded


# -- output-equality gate: cost checks against full plan-set enumeration -----------
#
# The reference is the enumeration the cost checks replaced, kept verbatim:
# a Dijkstra that settles every state within the bound, a walk over every
# cost-tight sequence, and predicates that read the resulting plan set.  It
# shares no search code with the module, so a fault in the module's search
# cannot hide by showing in both.


def _ref_enumerate(model, init, goal, max_cost, max_count=100_000):
    def apply(action, state):
        return (state - action.delete) | action.add

    dist = {init: 0}
    heap = [(0, 0, init)]
    tie = count(1)
    best_goal = None
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
                nstate = apply(action, state)
                if nd < dist.get(nstate, nd + 1):
                    dist[nstate] = nd
                    heappush(heap, (nd, next(tie), nstate))
    if best_goal is None:
        return PlanSet(plans=frozenset(), cost=None)
    plans = set()
    stack = [(init, 0, ())]
    while stack:
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
                nstate = apply(action, state)
                if dist.get(nstate, nd + 1) == nd:
                    stack.append((nstate, nd, seq + (aid,)))
    return PlanSet(plans=frozenset(plans), cost=best_goal)


def _ref_simulate_cost(model, init, goal, actions):
    state, total = init, 0
    for aid in actions:
        action = model.actions[aid]
        if not action.pre <= state:
            return None
        state = (state - action.delete) | action.add
        total += action.cost
    return total if goal <= state else None


def _ref_optimal_plans_of(problem, extra):
    updated = apply_features(problem.human_model, extra)
    reference = _ref_simulate_cost(updated, problem.init, problem.goal,
                                   problem.robot_plan.actions)
    return _ref_enumerate(updated, problem.init, problem.goal, max_cost=reference)


def _ref_is_complete(problem, delta):
    updated = apply_features(problem.human_model, delta)
    plan_cost = _ref_simulate_cost(updated, problem.init, problem.goal,
                                   problem.robot_plan.actions)
    if plan_cost is None:
        return False
    found = _ref_enumerate(updated, problem.init, problem.goal, max_cost=plan_cost)
    assert isinstance(found, PlanSet)
    return found.cost == plan_cost


def _ref_is_member(problem, extra):
    plans = _ref_optimal_plans_of(problem, extra)
    assert isinstance(plans, PlanSet)
    return problem.robot_plan.actions in plans.plans


def _ref_starts_an_optimum(problem, extra):
    plans = _ref_optimal_plans_of(problem, extra)
    assert isinstance(plans, PlanSet)
    prefix = problem.robot_plan.actions
    return any(p[: len(prefix)] == prefix for p in plans.plans)


def _ref_oracle_check(problem, method, explanation):
    if method in ("mce", "mce-r"):
        feats = tuple(problem.missing)
        for k in range(len(feats) + 1):
            hits = [FeatureSet(c) for c in combinations(feats, k)
                    if _ref_is_complete(problem, FeatureSet(c))]
            if hits:
                return explanation.features in hits
        return False
    if method == "oeg-ap":
        return _ref_starts_an_optimum(problem, explanation.features)
    return _ref_is_member(problem, explanation.features)


@pytest.fixture(scope="module")
def gate_problems(all_problems):
    # more seeds than test_random_problems draws: 34 problems, 416 subsets
    randoms = [p for p in map(_random_problem, range(60)) if p is not None]
    return [*all_problems.items(), *((f"random-{i}", p) for i, p in enumerate(randoms))]


def test_cost_checks_match_the_enumeration_on_every_subset(gate_problems):
    seen = 0
    answers = set()
    for name, problem in gate_problems:
        feats = tuple(problem.missing)
        for k in range(len(feats) + 1):
            for combo in combinations(feats, k):
                delta = FeatureSet(combo)
                complete = _is_complete(problem, delta)
                assert complete == _ref_is_complete(problem, delta), (name, combo)
                assert robot_plan_is_optimal(problem, delta) == \
                    _ref_is_member(problem, delta), (name, combo)
                carried = robot_plan_is_optimal(problem, delta, as_prefix=True)
                assert carried == _ref_starts_an_optimum(problem, delta), (name, combo)
                assert optimal_plans_of(problem, delta) == \
                    _ref_optimal_plans_of(problem, delta), (name, combo)
                answers.add((complete, carried))
                seen += 1
    assert seen >= 400
    assert answers == {(True, True), (False, False)}


def _suite_entries():
    for suite in ("suite-small.json", "suite-ipc.json"):
        yield from SuiteConfig.from_json(fixture_path(suite)).entries


def test_oracle_verified_matches_the_enumeration_on_every_suite_op():
    falses = []
    for entry in _suite_entries():
        problem = load_problem(entry.domain, entry.problem,
                               human_domain_path=entry.human_domain,
                               removal_list_path=entry.remove_features)
        for method in ("mce", "mce-r", "oeg-pp", "oeg-na", "oeg-ap"):
            explanation = run_method(problem, method, seed=7)
            verdict = _oracle_check(problem, method, explanation)
            assert verdict == _ref_oracle_check(problem, method, explanation), \
                (entry.problem_id, method)
            if not verdict:
                falses.append(f"{entry.problem_id}/{method}")
    # the oeg-na check holds the prefix-preserving contract (a known gap)
    assert falses == ["reshuffle/oeg-na"]


_MODELS = {"random": random_model, "static": static_fact_model}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_MODELS)), seed=st.integers(0, 10_000),
       bound=st.integers(0, 8))
def test_search_cost_equals_the_enumeration(kind, seed, bound):
    model, init, goal = _MODELS[kind](random.Random(seed))
    for max_cost in (bound, None):
        expected = _ref_enumerate(model, init, goal, max_cost)
        assert optimal_cost(model, init, goal, max_cost) == expected.cost
        assert enumerate_optimal_plans(model, init, goal, max_cost) == expected


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_MODELS)), seed=st.integers(0, 10_000),
       walk=st.lists(st.integers(0, 99), max_size=6))
def test_prefix_check_equals_the_enumeration(kind, seed, walk):
    model, init, goal = _MODELS[kind](random.Random(seed))
    # an executable prefix: each drawn number picks among the applicable
    # actions, so a walk may stop short of the goal, reach it, or pass it
    prefix, state = (), init
    for pick in walk:
        applicable = [aid for aid, a in enumerate(model.actions) if a.pre <= state]
        if not applicable:
            break
        aid = applicable[pick % len(applicable)]
        prefix += (aid,)
        state = (state - model.actions[aid].delete) | model.actions[aid].add
    plans = _ref_enumerate(model, init, goal, max_cost=None).plans
    expected = any(p[: len(prefix)] == prefix for p in plans)
    assert starts_optimal_plan(model, init, goal, prefix) == expected
