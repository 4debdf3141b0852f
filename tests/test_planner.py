from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explan.errors import InconsistentTask, PrefixNotExecutable
from explan.grounding import GroundedTask
from explan.model import GroundAction, GroundedModel
from explan.oracle import PlanSet, enumerate_optimal_plans
from explan.planner import (
    Invalid,
    Plan,
    _decode_ids,
    _encode_id,
    _id_width,
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


# -- action ids held as bytes ------------------------------------------------------


@st.composite
def _id_sequences(draw):
    n = draw(st.sampled_from([1, 255, 256, 257, 65_536, 65_537]))
    edges = [i for i in (0, 255, 256, 65_535, 65_536) if i < n] + [n - 1]
    ids = st.lists(st.one_of(st.integers(0, n - 1), st.sampled_from(edges)),
                   max_size=6)
    return n, draw(ids), draw(ids)


@settings(max_examples=300, deadline=None)
@given(_id_sequences())
def test_id_bytes_order_is_id_sequence_order(case):
    n, a, b = case
    width = _id_width(n)
    assert width == {1: 1, 255: 1, 256: 1, 257: 2, 65_536: 2, 65_537: 3}[n]
    code_a = b"".join(_encode_id(aid, width) for aid in a)
    code_b = b"".join(_encode_id(aid, width) for aid in b)
    assert (code_a < code_b) == (a < b)
    assert (code_a == code_b) == (a == b)
    assert _decode_ids(code_a, width) == tuple(a)


def wide_model(rng: random.Random, n_actions: int, achievers: dict[int, int]):
    """A task of ``n_actions`` actions that mostly pad out the id range.

    ``achievers`` maps an action id to the goal fact (0 or 1) it adds at
    cost 1 with no precondition, so every optimal plan is two achievers.
    Every other action is random over four padding facts, which no goal
    needs, or dead: it needs fact 6, which nothing adds.
    """
    pad = range(2, 6)
    actions = []
    for aid in range(n_actions):
        if aid in achievers:
            pre, add, delete, cost = set(), {achievers[aid]}, set(), 1
        else:
            pre = set(rng.sample(pad, rng.randint(0, 1)))
            if rng.random() < 0.8:
                pre.add(6)
            add = set(rng.sample(pad, rng.randint(1, 2)))
            delete = set(rng.sample(pad, rng.randint(0, 1))) - add
            cost = rng.randint(1, 2)
        actions.append(GroundAction(
            name=f"a{aid:03d}", pre=frozenset(pre), add=frozenset(add),
            delete=frozenset(delete), cost=cost))
    model = GroundedModel(fact_names=tuple(f"f{i}" for i in range(7)),
                          actions=tuple(actions))
    return model, frozenset(), frozenset({0, 1})


@pytest.mark.parametrize("seed", range(3))
def test_least_optimal_plan_across_the_one_byte_id_boundary(seed):
    # the eight optimal plans pair 10 or 300 with 255 or 256, in either
    # order, so they first differ at ids on both sides of the one-byte
    # boundary; only fixed-width big-endian codes order them as ids
    model, init, goal = wide_model(random.Random(seed), 301,
                                   {10: 1, 255: 0, 256: 0, 300: 1})
    plans = enumerate_optimal_plans(model, init, goal, max_cost=2)
    assert isinstance(plans, PlanSet) and len(plans.plans) == 8
    plan = plan_optimal(model, init, goal)
    assert plan.actions == min(plans.plans) == (10, 255)
    assert plan.cost == 2


@pytest.mark.parametrize("seed", range(3))
def test_exists_with_prefix_matches_enumeration_across_id_widths(seed):
    # 256 base actions fit one byte each; any forced copy takes the
    # compiled model past 256 actions, into two-byte ids
    rng = random.Random(seed)
    model, init, goal = wide_model(rng, 256, {3: 1, 200: 0, 254: 0, 255: 1})
    optimum = plan_optimal(model, init, goal)
    plans = enumerate_optimal_plans(model, init, goal, max_cost=optimum.cost).plans
    free = [aid for aid, a in enumerate(model.actions) if not a.pre]
    seen = Counter()
    for plan in sorted(plans):
        for prefix in (plan[:1], plan, (plan[0], rng.choice(free))):
            expected = any(p[: len(prefix)] == prefix for p in plans)
            seen[expected] += 1
            assert exists_optimal_with_prefix(
                model, init, goal, prefix, optimum) == expected, prefix
    assert min(seen[True], seen[False]) >= 4, seen
