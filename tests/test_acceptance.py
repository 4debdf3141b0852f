"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from explan import fixture_path
from explan.bench import SuiteConfig, emit_table, run_suite
from explan.errors import PrefixNotExecutable
from explan.grounding import GroundedTask
from explan.model import FeatureSet, apply_features
from explan.oracle import PlanSet, enumerate_optimal_plans, min_complete_subsets
from explan.planner import (
    compile_prefix,
    exists_optimal_with_prefix,
    matches_through,
    plan_optimal,
)
from explan.reconcile import mce, oeg_ap, oeg_na, oeg_pp, verify_online

from test_planner import random_model


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label} failed{suffix}"


def test_criterion_1_planner_optimality(all_problems):
    ok = True
    slowest = 0.0
    cases = []
    for name, problem in all_problems.items():
        cases.append((f"{name}/robot", problem.robot_model, problem.init, problem.goal))
        cases.append((f"{name}/human", problem.human_model, problem.init, problem.goal))
    for seed in range(6):
        model, init, goal = random_model(random.Random(seed))
        cases.append((f"random-{seed}", model, init, goal))
    for label, model, init, goal in cases:
        start = time.perf_counter()
        plan = plan_optimal(model, init, goal)
        if plan is None:
            found = enumerate_optimal_plans(model, init, goal, max_cost=15)
            ok &= isinstance(found, PlanSet) and not found.plans
        else:
            found = enumerate_optimal_plans(model, init, goal, max_cost=plan.cost)
            ok &= isinstance(found, PlanSet) and found.cost == plan.cost \
                and plan.actions in found.plans
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        ok &= elapsed < 1.0
    _report(1, "planner optimality vs enumeration", ok,
            f"{len(cases)} tasks, slowest {slowest:.3f}s")


def test_criterion_2_mce_minimal_and_complete(all_problems):
    ok = True
    for name, problem in all_problems.items():
        assert len(problem.missing) <= 12, name
        ok &= mce(problem) in min_complete_subsets(problem)
    _report(2, "mce is a minimum complete subset", ok,
            f"{len(all_problems)} fixtures")


def test_criterion_3_prefix_mode_soundness(minirover, minirover2, rover, barman):
    ok = True
    for problem in (minirover, minirover2, rover, barman):
        report = verify_online(problem, oeg_pp(problem))
        ok &= all(c.holds for c in report.per_step)
        ok &= report.final_check
        ok &= report.distance == 0.0
    _report(3, "prefix-mode per-step and final checks", ok, "4 fixtures, distance 0.0")


def test_criterion_4_exact_mode_holdout_guarantee(minirover2):
    explanation = oeg_pp(minirover2, mode="exact")
    pstar = minirover2.robot_plan
    remaining = minirover2.missing
    ok = bool(explanation.parts)
    for part in explanation.parts:
        holdout = remaining - part.features
        for k in range(len(holdout) + 1):
            for subset in combinations(tuple(holdout), k):
                between = apply_features(minirover2.human_model,
                                         minirover2.missing - FeatureSet(subset))
                plan = plan_optimal(between, minirover2.init, minirover2.goal)
                ok &= matches_through(pstar, plan, part.step)
        remaining = remaining - part.features
    _report(4, "exact mode holds under every holdout subset", ok)


def test_criterion_5_next_action_soundness(all_problems, reshuffle):
    ok = True
    for name, problem in all_problems.items():
        explanation = oeg_na(problem)
        ok &= not explanation.unfixable_steps
        applied = FeatureSet()
        for part in explanation.parts:
            applied = applied | part.features
            updated = apply_features(problem.human_model, applied)
            plan = plan_optimal(updated, problem.init, problem.goal)
            ok &= plan is not None and part.step <= len(plan) \
                and plan.action_at(part.step) == problem.robot_plan.action_at(part.step)
    shuffle_report = verify_online(reshuffle, oeg_na(reshuffle))
    ok &= shuffle_report.distance > 0
    _report(5, "next-action trigger matches; reshuffle distance > 0", ok,
            f"reshuffle distance {shuffle_report.distance:.3f}")


def test_criterion_6_any_prefix_agreement(all_problems, tieworld):
    ok = True
    for name, problem in all_problems.items():
        for model in (problem.robot_model, problem.human_model):
            unconstrained = plan_optimal(model, problem.init, problem.goal)
            found = enumerate_optimal_plans(model, problem.init, problem.goal,
                                            max_cost=unconstrained.cost)
            assert isinstance(found, PlanSet), name
            for t in range(len(problem.robot_plan) + 1):
                prefix = problem.robot_plan.prefix(t)
                member = any(p[:t] == prefix for p in found.plans)
                try:
                    fast = exists_optimal_with_prefix(model, problem.init,
                                                      problem.goal, prefix,
                                                      unconstrained)
                except PrefixNotExecutable:
                    fast = False
                ok &= fast == member
    ap_features = oeg_ap(tieworld).total_features
    pp_features = oeg_pp(tieworld).total_features
    ok &= ap_features == 0 and pp_features == 1
    for name, problem in all_problems.items():
        ok &= oeg_ap(problem).total_features <= len(mce(problem))
    _report(6, "any-prefix check agrees with enumeration; tie fixture 0 vs 1", ok)


def test_criterion_7_part_size_trend(all_problems):
    ok = True
    applicable = 0
    for name, problem in all_problems.items():
        mce_size = len(mce(problem))
        if mce_size < 2:
            continue
        applicable += 1
        ok &= oeg_pp(problem).avg_part_size < mce_size
    ok &= applicable >= 3
    _report(7, "average prefix-mode part size below mce size", ok,
            f"{applicable} fixtures with mce >= 2")


def test_criterion_8_compilation_exactness(all_problems):
    ok = True
    checked = 0
    for name, problem in all_problems.items():
        for model in (problem.robot_model, problem.human_model):
            task = GroundedTask(model=model, init=problem.init, goal=problem.goal)
            unconstrained = plan_optimal(model, problem.init, problem.goal)
            found = enumerate_optimal_plans(model, problem.init, problem.goal,
                                            max_cost=unconstrained.cost)
            assert isinstance(found, PlanSet)
            for t in range(len(problem.robot_plan) + 1):
                prefix = problem.robot_plan.prefix(t)
                member = any(p[:t] == prefix for p in found.plans)
                try:
                    compiled = compile_prefix(task, prefix)
                except PrefixNotExecutable:
                    ok &= not member
                    continue
                forced = plan_optimal(compiled.task.model, compiled.task.init,
                                      compiled.task.goal)
                if forced is None:
                    ok &= not member
                    continue
                checked += 1
                ok &= forced.cost >= unconstrained.cost
                ok &= (forced.cost == unconstrained.cost) == member
                forced_set = enumerate_optimal_plans(
                    compiled.task.model, compiled.task.init, compiled.task.goal,
                    max_cost=forced.cost)
                assert isinstance(forced_set, PlanSet)
                for plan in forced_set.plans:
                    mapped = tuple(compiled.to_base_action(a) for a in plan[:t])
                    ok &= mapped == prefix
    _report(8, "compiled optima carry the prefix; cost equality iff member", ok,
            f"{checked} compilations")


def test_criterion_9_bench_determinism():
    config = SuiteConfig.from_json(str(fixture_path("suite-small.json")))

    def stripped() -> list[str]:
        rows = emit_table(run_suite(config)).splitlines()
        return [",".join(cell for i, cell in enumerate(row.split(",")) if i != 6)
                for row in rows]

    first, second = stripped(), stripped()
    ok = first == second and len(first) == 26
    _report(9, "bench output reproducible modulo timing", ok,
            f"{len(first) - 1} rows")
