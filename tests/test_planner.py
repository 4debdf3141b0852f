from __future__ import annotations

import random
from collections import Counter

import pytest

from explan.errors import InconsistentTask, PrefixNotExecutable
from explan.grounding import GroundedTask
from explan.model import GroundAction, GroundedModel
from explan.oracle import PlanSet, enumerate_optimal_plans
from explan.planner import (
    Invalid,
    Plan,
    compile_prefix,
    exists_optimal_with_prefix,
    first_diff,
    plan_distance,
    plan_optimal,
    validate,
)


def _task(problem) -> GroundedTask:
    return GroundedTask(model=problem.robot_model, init=problem.init,
                        goal=problem.goal)


def _names(problem, plan):
    return plan.names(problem.robot_model)


def test_goal_in_init_gives_empty_plan(minirover):
    plan = plan_optimal(minirover.robot_model, minirover.goal, minirover.goal)
    assert plan == Plan(actions=(), cost=0)


def test_minirover_robot_plan(minirover):
    plan = plan_optimal(minirover.robot_model, minirover.init, minirover.goal)
    assert _names(minirover, plan) == ["calibrate", "take-image", "communicate"]
    assert plan.cost == 3


def test_minirover_human_plan(minirover):
    plan = plan_optimal(minirover.human_model, minirover.init, minirover.goal)
    assert _names(minirover, plan) == ["take-image", "communicate"]
    assert plan.cost == 2


def test_unsolvable_returns_none(minirover):
    unreachable = frozenset({minirover.robot_model.fact_ids["calibrated"],
                             minirover.robot_model.fact_ids["communicated"]})
    model = GroundedModel(
        fact_names=minirover.robot_model.fact_names,
        actions=tuple(a for a in minirover.robot_model.actions
                      if a.name != "calibrate"),
    )
    assert plan_optimal(model, frozenset(), unreachable) is None


def test_planner_is_deterministic(barman):
    a = plan_optimal(barman.robot_model, barman.init, barman.goal)
    b = plan_optimal(barman.robot_model, barman.init, barman.goal)
    assert a.actions == b.actions


def test_validate_empty_plan(minirover):
    assert validate(minirover.robot_model, minirover.goal, minirover.goal,
                    Plan((), 0)) == 0


def test_validate_detects_missing_precondition(minirover):
    model = minirover.robot_model
    plan = Plan(actions=(model.action_ids["take-image"],
                         model.action_ids["communicate"]), cost=2)
    assert validate(model, minirover.init, minirover.goal, plan) == Invalid(step=1)


def test_validate_accepts_robot_plan(minirover):
    cost = validate(minirover.robot_model, minirover.init, minirover.goal,
                    minirover.robot_plan)
    assert cost == 3 == minirover.robot_plan.cost


def test_validate_reports_goal_failure_past_plan_end(minirover):
    model = minirover.robot_model
    plan = Plan(actions=(model.action_ids["calibrate"],), cost=1)
    assert validate(model, minirover.init, minirover.goal, plan) == Invalid(step=2)


def test_first_diff_cases():
    assert first_diff(Plan((1, 2, 3), 3), Plan((1, 2, 3), 3)) is None
    assert first_diff(Plan((1, 2, 3), 3), Plan((1, 9, 3), 3)) == 2
    assert first_diff(Plan((1, 2), 2), Plan((1, 2, 3), 3)) == 3


def test_plan_distance_cases():
    assert plan_distance(Plan((1, 2), 2), Plan((1, 2), 2)) == 0.0
    assert plan_distance(Plan((1,), 1), Plan((2,), 1)) == 1.0
    assert plan_distance(Plan((1, 2, 4), 3), Plan((1, 2, 3), 3)) == pytest.approx(1 / 3)


# -- prefix compilation ---------------------------------------------------------


def test_compile_empty_prefix_keeps_cost(minirover):
    compiled = compile_prefix(_task(minirover), [])
    plan = plan_optimal(compiled.task.model, compiled.task.init, compiled.task.goal)
    assert plan.cost == 3


def test_compile_prefix_on_robot_model(minirover):
    cal = minirover.robot_model.action_ids["calibrate"]
    compiled = compile_prefix(_task(minirover), [cal])
    plan = plan_optimal(compiled.task.model, compiled.task.init, compiled.task.goal)
    assert plan.cost == 3
    assert compiled.to_base_action(plan.actions[0]) == cal


def test_compile_prefix_forces_detour_in_human_model(minirover):
    cal = minirover.robot_model.action_ids["calibrate"]
    task = GroundedTask(model=minirover.human_model, init=minirover.init,
                        goal=minirover.goal)
    compiled = compile_prefix(task, [cal])
    forced = plan_optimal(compiled.task.model, compiled.task.init, compiled.task.goal)
    unconstrained = plan_optimal(minirover.human_model, minirover.init, minirover.goal)
    assert forced.cost == 3
    assert unconstrained.cost == 2


def test_compile_rejects_inexecutable_prefix(minirover):
    take = minirover.robot_model.action_ids["take-image"]
    with pytest.raises(PrefixNotExecutable) as err:
        compile_prefix(_task(minirover), [take])
    assert err.value.step == 1


def test_compiled_cost_never_below_unconstrained(minirover2):
    model = minirover2.human_model
    base = plan_optimal(model, minirover2.init, minirover2.goal)
    for t in range(len(minirover2.robot_plan) + 1):
        prefix = minirover2.robot_plan.prefix(t)
        try:
            compiled = compile_prefix(
                GroundedTask(model=model, init=minirover2.init,
                             goal=minirover2.goal), prefix)
        except PrefixNotExecutable:
            continue
        forced = plan_optimal(compiled.task.model, compiled.task.init,
                              compiled.task.goal)
        assert forced is None or forced.cost >= base.cost


def test_exists_with_full_robot_plan_prefix(minirover):
    assert exists_optimal_with_prefix(
        minirover.robot_model, minirover.init, minirover.goal,
        minirover.robot_plan.actions, minirover.robot_plan)


def test_exists_tie_prefix_true(tieworld):
    walk = tieworld.robot_model.action_ids["walk"]
    optimum = plan_optimal(tieworld.human_model, tieworld.init, tieworld.goal)
    assert exists_optimal_with_prefix(
        tieworld.human_model, tieworld.init, tieworld.goal, [walk], optimum)


def test_exists_detour_prefix_false(minirover):
    cal = minirover.robot_model.action_ids["calibrate"]
    optimum = plan_optimal(minirover.human_model, minirover.init, minirover.goal)
    assert not exists_optimal_with_prefix(
        minirover.human_model, minirover.init, minirover.goal, [cal], optimum)


def test_exists_raises_on_unsolvable_unconstrained(minirover):
    model = GroundedModel(
        fact_names=minirover.robot_model.fact_names,
        actions=tuple(a for a in minirover.robot_model.actions
                      if a.name != "communicate"),
    )
    with pytest.raises(InconsistentTask):
        exists_optimal_with_prefix(model, minirover.init, minirover.goal, [],
                                   plan_optimal(model, minirover.init, minirover.goal))


def test_all_compiled_optima_start_with_prefix(minirover2):
    # every enumerated optimal plan of a compiled task begins with the prefix
    model = minirover2.robot_model
    prefix = minirover2.robot_plan.prefix(2)
    compiled = compile_prefix(_task(minirover2), prefix)
    forced = plan_optimal(compiled.task.model, compiled.task.init, compiled.task.goal)
    plans = enumerate_optimal_plans(compiled.task.model, compiled.task.init,
                                    compiled.task.goal, max_cost=forced.cost)
    assert isinstance(plans, PlanSet) and plans.plans
    for plan in plans.plans:
        mapped = tuple(compiled.to_base_action(a) for a in plan[: len(prefix)])
        assert mapped == prefix


# -- random tasks: planner versus exhaustive enumeration ---------------------------


def random_model(rng: random.Random) -> tuple[GroundedModel, frozenset, frozenset]:
    n_facts = rng.randint(4, 7)
    fact_names = tuple(f"f{i}" for i in range(n_facts))
    actions = []
    for i in range(rng.randint(4, 8)):
        add = set(rng.sample(range(n_facts), rng.randint(1, 2)))
        delete = set(rng.sample(range(n_facts), rng.randint(0, 1))) - add
        pre = set(rng.sample(range(n_facts), rng.randint(0, 2)))
        actions.append(GroundAction(
            name=f"a{i:02d}", pre=frozenset(pre), add=frozenset(add),
            delete=frozenset(delete), cost=rng.randint(1, 3)))
    init = frozenset(rng.sample(range(n_facts), rng.randint(0, 2)))
    goal = frozenset(rng.sample(range(n_facts), rng.randint(1, 2)))
    return GroundedModel(fact_names=fact_names, actions=tuple(actions)), init, goal


@pytest.mark.parametrize("seed", range(8))
def test_planner_matches_enumeration_on_random_tasks(seed):
    model, init, goal = random_model(random.Random(seed))
    plan = plan_optimal(model, init, goal)
    if plan is None:
        found = enumerate_optimal_plans(model, init, goal, max_cost=15)
        assert isinstance(found, PlanSet) and not found.plans
    else:
        found = enumerate_optimal_plans(model, init, goal, max_cost=plan.cost)
        assert isinstance(found, PlanSet)
        assert found.cost == plan.cost
        assert plan.actions in found.plans
        assert validate(model, init, goal, plan) == plan.cost


def static_fact_model(rng: random.Random) -> tuple[GroundedModel, frozenset, frozenset]:
    """A random task with static facts, dead actions and unreachable goals.

    Facts below ``n_dyn`` are dynamic; no action adds or deletes the others,
    the static facts.  Some static facts are false in ``init``, so every
    action that needs one is dead, and a goal may name one of them.
    """
    n_dyn = rng.randint(4, 6)
    n_facts = n_dyn + rng.randint(2, 3)
    dynamic, static = range(n_dyn), range(n_dyn, n_facts)
    static_true = set(rng.sample(static, rng.randint(1, len(static) - 1)))
    actions = []
    for i in range(rng.randint(6, 10)):
        add = set(rng.sample(dynamic, rng.randint(1, 2)))
        delete = set(rng.sample(dynamic, rng.randint(0, 1))) - add
        pre = set(rng.sample(dynamic, rng.randint(0, 2)))
        pre |= set(rng.sample(static, rng.randint(0, 1)))
        actions.append(GroundAction(
            name=f"a{i:02d}", pre=frozenset(pre), add=frozenset(add),
            delete=frozenset(delete), cost=rng.randint(1, 2)))
    init = frozenset(rng.sample(dynamic, rng.randint(0, 1))) | static_true
    goal = set(rng.sample(dynamic, rng.randint(2, 3)))
    if rng.random() < 0.3:
        goal.add(rng.choice(static))
    model = GroundedModel(fact_names=tuple(f"f{i}" for i in range(n_facts)),
                          actions=tuple(actions))
    return model, init, frozenset(goal)


def _relaxed_facts(model: GroundedModel, init: frozenset) -> set[int]:
    reached = set(init)
    while True:
        more = set().union(*(a.add for a in model.actions if a.pre <= reached))
        if more <= reached:
            return reached
        reached |= more


def test_planner_is_the_least_optimal_plan_with_static_facts():
    seen = Counter()
    for seed in range(100):
        model, init, goal = static_fact_model(random.Random(seed))
        reached = _relaxed_facts(model, init)
        seen["dead"] += any(not a.pre <= reached for a in model.actions)
        seen["goal out of reach"] += not goal <= reached
        plan = plan_optimal(model, init, goal)
        found = enumerate_optimal_plans(model, init, goal, max_cost=None)
        assert isinstance(found, PlanSet)
        assert (plan is None) == (not found.plans), seed
        if plan is not None:
            seen["solved"] += 1
            assert plan.actions == min(found.plans), seed
            assert plan.cost == found.cost == validate(model, init, goal, plan)
    assert min(seen["dead"], seen["goal out of reach"], seen["solved"]) >= 5, seen


def test_exists_with_prefix_matches_enumeration_with_static_facts():
    seen = Counter()
    for seed in range(100):
        rng = random.Random(seed)
        model, init, goal = static_fact_model(rng)
        optimum = plan_optimal(model, init, goal)
        if optimum is None:
            continue
        plans = enumerate_optimal_plans(model, init, goal, max_cost=optimum.cost).plans
        for _ in range(4):
            # a random executable prefix of up to three steps
            prefix, state = (), set(init)
            for _ in range(rng.randint(0, 3)):
                applicable = [aid for aid, a in enumerate(model.actions) if a.pre <= state]
                if not applicable:
                    break
                aid = rng.choice(applicable)
                prefix += (aid,)
                state = (state - model.actions[aid].delete) | model.actions[aid].add
            expected = any(p[: len(prefix)] == prefix for p in plans)
            seen[expected] += 1
            assert exists_optimal_with_prefix(
                model, init, goal, prefix, optimum) == expected, (seed, prefix)
    assert min(seen[True], seen[False]) >= 10, seen
