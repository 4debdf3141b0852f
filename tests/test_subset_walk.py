"""Output-equality gate for the shared subset walk.

The generators in ``reconcile`` share one subset walk and one copy of each
step condition.  The reference below is the earlier design kept verbatim
as a test helper: five hand-written loops over ``_ref_subsets``, each with
its own copy of its condition.  Every generator must give exactly the
reference's explanation (variant, parts and their steps, ``fallback``,
``unfixable_steps`` and notes) on the bundled fixtures, the committed
benchmark stress instances and the random problems.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest

from explan.bench import load_problem
from explan.errors import NotReconcilable, SearchExhausted
from explan.model import FeatureSet
from explan.planner import Invalid, first_diff, matches_through, validate
from explan.reconcile import (
    VARIANT_AP,
    VARIANT_NA,
    VARIANT_PP,
    OnlineExplanation,
    SubExplanation,
    mce,
    oeg_ap,
    oeg_na,
    oeg_pp,
)

from test_random_problems import SEEDS, _random_problem

STRESS_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
STRESS = (  # (instance, domain file, problem file), read only
    ("rover-p1-s1", "rover-domain.pddl", "rover-p1-problem.pddl"),
    ("rover-p1-s3", "rover-domain.pddl", "rover-p1-problem.pddl"),
    ("rover-p1-s4", "rover-domain.pddl", "rover-p1-problem.pddl"),
    ("rover-p1-s5", "rover-domain.pddl", "rover-p1-problem.pddl"),
    ("barman-p1-s1", "barman-domain.pddl", "barman-p1-problem.pddl"),
    ("rover-gen-s1", "rover-domain.pddl", "rover-gen-s1-problem.pddl"),
)


# -- the reference: one hand-written loop per generator ----------------------------


def _ref_subsets(features, include_empty=False):
    feats = tuple(features)
    for k in range(0 if include_empty else 1, len(feats) + 1):
        for combo in combinations(feats, k):
            yield FeatureSet(combo)


def _ref_divergence(pstar, human):
    return 1 if human is None else first_diff(pstar, human)


def _ref_append_part(parts, features, step):
    if parts and parts[-1].step == step:
        merged = SubExplanation(features=parts[-1].features | features, step=step)
        return [*parts[:-1], merged]
    return [*parts, SubExplanation(features=features, step=step)]


def _ref_mce(problem):
    pstar = problem.robot_plan
    for delta in _ref_subsets(problem.missing, include_empty=True):
        cost = validate(problem.model(delta), problem.init, problem.goal, pstar)
        if isinstance(cost, Invalid):
            continue
        optimal = problem.plan(delta)
        if optimal is not None and optimal.cost == cost:
            return delta
    raise NotReconcilable("no complete subset")


def _ref_pp_approx(problem):
    pstar, missing = problem.robot_plan, problem.missing
    horizon = len(pstar)

    def frame_for(applied, parts):
        d = _ref_divergence(pstar, problem.plan(applied))
        return None if d is None else (iter(_ref_subsets(missing - applied)), applied, parts, d)

    top = frame_for(FeatureSet(), [])
    if top is None:
        return [], False
    first_divergence = top[3]
    stack = [top]
    while stack:
        candidates, applied, parts, d = stack[-1]
        chosen = None
        for e in candidates:
            if matches_through(pstar, problem.plan(applied | e), d):
                chosen = e
                break
        if chosen is None:
            stack.pop()
            continue
        next_parts = _ref_append_part(parts, chosen, min(d, horizon))
        frame = frame_for(applied | chosen, next_parts)
        if frame is None:
            return next_parts, False
        stack.append(frame)
    return _ref_append_part([], missing, min(first_divergence, horizon) if horizon else 1), True


def _ref_pp_exact(problem):
    pstar, missing = problem.robot_plan, problem.missing
    horizon = len(pstar)
    applied = FeatureSet()
    parts = []
    while True:
        d = _ref_divergence(pstar, problem.plan(applied))
        if d is None:
            return parts
        remaining = missing - applied
        for e in _ref_subsets(remaining):
            holdout = remaining - e
            if all(
                matches_through(pstar, problem.plan(missing - FeatureSet(s)), d)
                for k in range(len(holdout) + 1)
                for s in combinations(tuple(holdout), k)
            ):
                applied = applied | e
                parts = _ref_append_part(parts, e, min(d, horizon))
                break
        else:
            raise AssertionError("exact search found no candidate")


def _ref_oeg_pp(problem, mode="approx", exact_threshold=12):
    notes = ()
    if mode == "exact" and len(problem.missing) > exact_threshold:
        mode = "approx"
        notes = (f"diff size {len(problem.missing)} exceeds the exact-mode threshold "
                 f"{exact_threshold}; fell back to approximate search",)
    if mode == "exact":
        return OnlineExplanation(variant=VARIANT_PP, parts=tuple(_ref_pp_exact(problem)),
                                 notes=notes)
    parts, fallback = _ref_pp_approx(problem)
    return OnlineExplanation(variant=VARIANT_PP, parts=tuple(parts),
                             fallback=fallback, notes=notes)


def _ref_oeg_na(problem):
    pstar, missing = problem.robot_plan, problem.missing
    applied = FeatureSet()
    parts = []
    unfixable = []
    plan = problem.plan(applied)
    for t in range(1, len(pstar) + 1):
        want = pstar.action_at(t)
        have = plan.action_at(t) if plan is not None and t <= len(plan) else None
        if have == want:
            continue
        for e in _ref_subsets(missing - applied):
            candidate = problem.plan(applied | e)
            if candidate is not None and t <= len(candidate) \
                    and candidate.action_at(t) == want:
                applied = applied | e
                plan = candidate
                parts.append(SubExplanation(features=e, step=t))
                break
        else:
            unfixable.append(t)
    return OnlineExplanation(variant=VARIANT_NA, parts=tuple(parts),
                             unfixable_steps=tuple(unfixable))


def _ref_oeg_ap(problem):
    pstar, missing = problem.robot_plan, problem.missing
    applied = FeatureSet()
    parts = []
    t = 1
    while t <= len(pstar):
        if problem.prefix_ok(applied, t):
            t += 1
            continue
        for e in _ref_subsets(missing - applied):
            if problem.prefix_ok(applied | e, t):
                applied = applied | e
                parts.append(SubExplanation(features=e, step=t))
                break
        else:
            raise SearchExhausted(f"no feature subset restores the prefix at step {t}")
    return OnlineExplanation(variant=VARIANT_AP, parts=tuple(parts))


# -- the gate ---------------------------------------------------------------------


def _assert_same_as_reference(problem, name):
    assert mce(problem) == _ref_mce(problem), name
    for mode in ("approx", "exact"):
        assert oeg_pp(problem, mode=mode) == _ref_oeg_pp(problem, mode=mode), (name, mode)
    assert oeg_na(problem) == _ref_oeg_na(problem), name
    assert oeg_ap(problem) == _ref_oeg_ap(problem), name


def test_generators_match_reference_on_fixtures(all_problems):
    assert len(all_problems) == 7
    for name, problem in all_problems.items():
        _assert_same_as_reference(problem, name)


@pytest.mark.parametrize("instance,domain,task", STRESS, ids=[s[0] for s in STRESS])
def test_generators_match_reference_on_stress_instances(instance, domain, task):
    problem = load_problem(STRESS_INPUTS / domain, STRESS_INPUTS / task,
                           removal_list_path=STRESS_INPUTS / f"{instance}-removals.txt")
    _assert_same_as_reference(problem, instance)


def test_generators_match_reference_on_random_problems():
    problems = [p for p in map(_random_problem, SEEDS) if p is not None]
    assert len(problems) >= 10
    for i, problem in enumerate(problems):
        _assert_same_as_reference(problem, f"random problem {i}")
