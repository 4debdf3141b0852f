from __future__ import annotations

import pytest

from explan import fixture_path, reconcile
from explan.bench import load_problem
from explan.errors import ExtraFeatures, NonCanonicalPlan, NonOptimalPlan
from explan.model import COST, FeatureSet, ModelFeature, apply_features, gamma
from explan.planner import Plan, plan_optimal
from explan.reconcile import (
    VARIANT_MCER,
    VARIANT_PP,
    OnlineExplanation,
    ReconciliationProblem,
    SubExplanation,
    mce,
    mce_random,
    oeg_ap,
    oeg_na,
    oeg_pp,
    verify_online,
)


def _parts(explanation):
    return [(p.step, p.features.names()) for p in explanation.parts]


def _same_model_problem(problem):
    return ReconciliationProblem.build(
        robot_model=problem.robot_model, human_model=problem.robot_model,
        init=problem.init, goal=problem.goal)


# -- problem construction -----------------------------------------------------------


def test_build_rejects_extra_features(minirover):
    richer = apply_features(
        minirover.human_model,
        FeatureSet([ModelFeature("calibrate", "add-effect", "communicated")]))
    with pytest.raises(ExtraFeatures):
        ReconciliationProblem.build(
            robot_model=minirover.robot_model, human_model=richer,
            init=minirover.init, goal=minirover.goal)


def test_build_rejects_suboptimal_plan(minirover):
    model = minirover.robot_model
    detour = Plan(actions=(model.action_ids["calibrate"],
                           model.action_ids["calibrate"],
                           model.action_ids["take-image"],
                           model.action_ids["communicate"]), cost=4)
    with pytest.raises(NonOptimalPlan):
        ReconciliationProblem.build(
            robot_model=model, human_model=minirover.human_model,
            init=minirover.init, goal=minirover.goal, robot_plan=detour)


def test_build_rejects_invalid_plan(minirover):
    model = minirover.robot_model
    bogus = Plan(actions=(model.action_ids["communicate"],), cost=1)
    with pytest.raises(NonOptimalPlan):
        ReconciliationProblem.build(
            robot_model=model, human_model=minirover.human_model,
            init=minirover.init, goal=minirover.goal, robot_plan=bogus)


# -- minimal complete explanations ---------------------------------------------------


def test_mce_empty_when_models_agree(minirover):
    assert mce(_same_model_problem(minirover)) == FeatureSet()


def test_mce_minirover(minirover):
    assert mce(minirover).names() == ["take-image-has-precondition-calibrated"]


def test_mce_minirover2_needs_both(minirover2):
    assert mce(minirover2).names() == [
        "drill-sample-has-precondition-warmed",
        "take-image-has-precondition-calibrated",
    ]


def test_mce_tieworld_is_empty(tieworld):
    # the robot plan is already optimal for the human (a cost tie)
    assert mce(tieworld) == FeatureSet()


def test_mce_makes_robot_plan_optimal(all_problems):
    from explan.planner import Invalid, validate

    for name, problem in all_problems.items():
        updated = apply_features(problem.human_model, mce(problem))
        cost = validate(updated, problem.init, problem.goal, problem.robot_plan)
        assert not isinstance(cost, Invalid), name
        assert cost == plan_optimal(updated, problem.init, problem.goal).cost, name


# -- randomly split explanations -----------------------------------------------------


def test_mce_random_empty(tieworld):
    assert mce_random(tieworld, seed=3).parts == ()


def test_mce_random_two_parts_at_steps_one_and_four(minirover2):
    explanation = mce_random(minirover2, seed=0)  # this seed draws k = 2
    assert [p.step for p in explanation.parts] == [1, 4]
    assert explanation.total_features == 2
    assert explanation.variant == VARIANT_MCER


def test_mce_random_single_feature_always_step_one(minirover):
    for seed in range(6):
        explanation = mce_random(minirover, seed=seed)
        assert _parts(explanation) == [(1, ["take-image-has-precondition-calibrated"])]


def test_mce_random_deterministic(minirover2):
    assert mce_random(minirover2, seed=42) == mce_random(minirover2, seed=42)


def test_mce_random_partition_covers_mce(minirover2):
    for seed in range(10):
        explanation = mce_random(minirover2, seed=seed)
        assert explanation.features == mce(minirover2)


# -- prefix-preserving explanations --------------------------------------------------


def test_oeg_pp_empty_diff(minirover):
    assert oeg_pp(_same_model_problem(minirover)).parts == ()


def test_oeg_pp_minirover(minirover):
    assert _parts(oeg_pp(minirover)) == [
        (1, ["take-image-has-precondition-calibrated"])]


def test_oeg_pp_minirover2_steps_one_and_four(minirover2):
    expected = [
        (1, ["take-image-has-precondition-calibrated"]),
        (4, ["drill-sample-has-precondition-warmed"]),
    ]
    assert _parts(oeg_pp(minirover2)) == expected
    assert _parts(oeg_pp(minirover2, mode="exact")) == expected


def test_oeg_pp_final_plan_equals_robot_plan(all_problems):
    for name, problem in all_problems.items():
        explanation = oeg_pp(problem)
        final = apply_features(problem.human_model, explanation.features)
        plan = plan_optimal(final, problem.init, problem.goal)
        assert plan.actions == problem.robot_plan.actions, name
        steps = [p.step for p in explanation.parts]
        assert steps == sorted(set(steps)), name


def test_oeg_pp_exact_threshold_falls_back(minirover2):
    explanation = oeg_pp(minirover2, mode="exact", exact_threshold=1)
    assert explanation.notes
    assert _parts(explanation) == _parts(oeg_pp(minirover2))


def test_oeg_pp_rejects_noncanonical_plan(tieworld):
    # both ways cost the same in the human model, and the canonical planner
    # picks the other one; prefix semantics are undefined for that plan
    ambiguous = ReconciliationProblem.build(
        robot_model=tieworld.human_model, human_model=tieworld.human_model,
        init=tieworld.init, goal=tieworld.goal,
        robot_plan=tieworld.robot_plan)
    with pytest.raises(NonCanonicalPlan):
        oeg_pp(ambiguous)
    with pytest.raises(NonCanonicalPlan):
        oeg_na(ambiguous)


def test_oeg_pp_exact_mode_survives_every_holdout_subset(minirover2):
    from itertools import combinations

    from explan.planner import matches_through

    explanation = oeg_pp(minirover2, mode="exact")
    remaining = minirover2.missing
    pstar = minirover2.robot_plan
    for part in explanation.parts:
        holdout = remaining - part.features
        for k in range(len(holdout) + 1):
            for subset in combinations(tuple(holdout), k):
                between = apply_features(
                    minirover2.human_model,
                    minirover2.missing - FeatureSet(subset))
                plan = plan_optimal(between, minirover2.init, minirover2.goal)
                assert matches_through(pstar, plan, part.step)
        remaining = remaining - part.features


def test_oeg_pp_depot_needs_a_two_feature_part(depot):
    # no single feature makes the expected plan open with the right action,
    # so the first part must carry the boot-and-gear chain as a pair
    explanation = oeg_pp(depot)
    assert _parts(explanation) == [
        (1, ["boot-has-add-effect-booted", "gear-has-precondition-booted"]),
        (3, ["drill-has-precondition-warmed"]),
    ]
    assert explanation.avg_part_size == 1.5
    assert _parts(oeg_pp(depot, mode="exact")) == _parts(explanation)
    assert verify_online(depot, explanation).verified


# -- next-action explanations --------------------------------------------------------


def test_oeg_na_minirover_matches_pp(minirover):
    assert _parts(oeg_na(minirover)) == _parts(oeg_pp(minirover))


def test_oeg_na_fixes_trigger_positions(all_problems):
    for name, problem in all_problems.items():
        explanation = oeg_na(problem)
        applied = FeatureSet()
        for part in explanation.parts:
            applied = applied | part.features
            updated = apply_features(problem.human_model, applied)
            plan = plan_optimal(updated, problem.init, problem.goal)
            assert plan.action_at(part.step) == \
                problem.robot_plan.action_at(part.step), name


def test_oeg_na_reshuffle_leaves_distance(reshuffle):
    explanation = oeg_na(reshuffle)
    report = verify_online(reshuffle, explanation)
    assert report.verified  # every trigger position matched when fixed
    assert report.distance > 0  # but an earlier position got reshuffled
    assert _parts(explanation) == [(2, ["scrounge-has-add-effect-have-kit"])]


def test_oeg_na_no_backtracking_single_pass(reshuffle):
    # the cheaper correct fix exists (the prefix methods find it) yet
    # next-action keeps its greedy first choice
    assert _parts(oeg_pp(reshuffle)) == [(2, ["shop-has-add-effect-have-kit"])]


# -- any-prefix explanations ---------------------------------------------------------


def test_oeg_ap_empty_diff(minirover):
    assert oeg_ap(_same_model_problem(minirover)).parts == ()


def test_oeg_ap_tieworld_needs_nothing(tieworld):
    assert oeg_ap(tieworld).parts == ()
    assert _parts(oeg_pp(tieworld)) == [(1, ["bike-has-precondition-have-bike"])]


def test_oeg_ap_accepts_noncanonical_optimal_plan(tieworld):
    ambiguous = ReconciliationProblem.build(
        robot_model=tieworld.human_model, human_model=tieworld.human_model,
        init=tieworld.init, goal=tieworld.goal,
        robot_plan=tieworld.robot_plan)
    assert oeg_ap(ambiguous).parts == ()


def test_oeg_ap_minirover_matches_pp(minirover):
    assert _parts(oeg_ap(minirover)) == _parts(oeg_pp(minirover))


def test_oeg_ap_never_larger_than_mce(all_problems):
    for name, problem in all_problems.items():
        assert oeg_ap(problem).total_features <= len(mce(problem)), name


# -- shared invariants ---------------------------------------------------------------


def test_parts_disjoint_and_within_missing(all_problems):
    for name, problem in all_problems.items():
        for explanation in (oeg_pp(problem), oeg_na(problem), oeg_ap(problem),
                            mce_random(problem, seed=1)):
            assert explanation.features.issubset(problem.missing), name
            total = sum(len(p.features) for p in explanation.parts)
            assert total == explanation.total_features, name
            for part in explanation.parts:
                assert 1 <= part.step <= max(len(problem.robot_plan), 1), name


def test_generators_share_one_plan_cache(monkeypatch):
    # a problem built after the patch, so its build's plan counts too
    models = []
    real = reconcile.plan_optimal

    def counting(model, init, goal):
        models.append(model)
        return real(model, init, goal)

    monkeypatch.setattr(reconcile, "plan_optimal", counting)
    problem = load_problem(fixture_path("depot-domain.pddl"),
                           fixture_path("depot-problem.pddl"),
                           removal_list_path=fixture_path("depot-removals.txt"))
    mce(problem)
    verify_online(problem, mce_random(problem, seed=3))
    for generator in (oeg_pp, oeg_na, oeg_ap):
        verify_online(problem, generator(problem))
    # distinct applied sets give distinct models, and vice versa
    assert len(models) > 2
    assert len(models) == len(set(models))


# -- verification --------------------------------------------------------------------


def test_verify_pp_minirover2(minirover2):
    report = verify_online(minirover2, oeg_pp(minirover2))
    assert report.verified
    assert report.distance == 0.0
    assert all(c.holds for c in report.per_step)


def test_verify_ap_tieworld_distance_one(tieworld):
    report = verify_online(tieworld, oeg_ap(tieworld))
    assert report.final_check
    assert report.distance == 1.0


def test_verify_detects_shuffled_parts(minirover2):
    good = oeg_pp(minirover2)
    swapped = OnlineExplanation(
        variant=VARIANT_PP,
        parts=(
            SubExplanation(features=good.parts[1].features, step=good.parts[0].step),
            SubExplanation(features=good.parts[0].features, step=good.parts[1].step),
        ),
    )
    report = verify_online(minirover2, swapped)
    assert not report.verified
    first_bad = next(c for c in report.per_step if not c.holds)
    assert first_bad.index == 2
    # the union still adds up to the full diff, so the final plan is fine
    assert report.final_check and report.distance == 0.0


def test_verify_rejects_features_outside_diff(minirover):
    rogue = OnlineExplanation(
        variant=VARIANT_PP,
        parts=(SubExplanation(
            features=FeatureSet([ModelFeature("calibrate", COST, 1)]), step=1),),
    )
    with pytest.raises(ExtraFeatures):
        verify_online(minirover, rogue)


def test_verify_report_json_round_trip(minirover):
    import json

    report = verify_online(minirover, oeg_pp(minirover))
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["verified"] is True
    assert doc["variant"] == "oeg-pp"
    assert doc["per_step"][0]["witness"] == ["take-image", "communicate"]


def test_explanation_constructor_guards():
    feat = FeatureSet([ModelFeature("a", "precondition", "f")])
    with pytest.raises(ValueError):
        SubExplanation(features=FeatureSet(), step=1)
    with pytest.raises(ValueError):
        OnlineExplanation(variant=VARIANT_PP, parts=(
            SubExplanation(features=feat, step=2),
            SubExplanation(features=feat, step=1),
        ))
    with pytest.raises(ValueError):
        OnlineExplanation(variant="bogus", parts=())


def test_gamma_union_matches_updated_model(minirover2):
    explanation = oeg_pp(minirover2)
    updated = apply_features(minirover2.human_model, explanation.features)
    assert gamma(updated) == gamma(minirover2.human_model) | explanation.features


def test_generators_handle_unsolvable_human_model(minirover):
    # a missing add effect leaves the human unable to reach the goal at all;
    # every generator must still explain from step 1 and verify
    from explan.model import remove_features as strip

    human = strip(minirover.robot_model, FeatureSet(
        [ModelFeature("take-image", "add-effect", "have-image")]))
    problem = ReconciliationProblem.build(
        robot_model=minirover.robot_model, human_model=human,
        init=minirover.init, goal=minirover.goal)
    assert plan_optimal(human, problem.init, problem.goal) is None
    for generate in (oeg_pp, oeg_na, oeg_ap):
        explanation = generate(problem)
        assert _parts(explanation) == [(1, ["take-image-has-add-effect-have-image"])]
        report = verify_online(problem, explanation)
        assert report.verified and report.distance == 0.0


def test_human_plan_extending_robot_plan_clamps_to_last_step():
    # a missing add effect makes the human expect an extra action after the
    # robot is already done; the divergence lands past the plan's end and the
    # part clamps to the final step
    from explan.model import GroundAction, GroundedModel
    from explan.model import remove_features as strip

    robot = GroundedModel(
        fact_names=("g", "p"),
        actions=(
            GroundAction("all-in-one", frozenset(), frozenset({0, 1}),
                         frozenset(), 1),
            GroundAction("topper", frozenset({1}), frozenset({0}),
                         frozenset(), 1),
        ),
    )
    human = strip(robot, FeatureSet(
        [ModelFeature("all-in-one", "add-effect", "g")]))
    problem = ReconciliationProblem.build(
        robot_model=robot, human_model=human,
        init=frozenset(), goal=frozenset({0}))
    assert problem.robot_plan.actions == (0,)
    assert plan_optimal(human, problem.init, problem.goal).actions == (0, 1)

    pp = oeg_pp(problem)
    assert _parts(pp) == [(1, ["all-in-one-has-add-effect-g"])]
    assert verify_online(problem, pp).verified

    na = oeg_na(problem)  # position 1 already matches; nothing to fix
    assert na.parts == ()
    report = verify_online(problem, na)
    assert report.verified and report.distance == 0.5

    ap = oeg_ap(problem)  # an optimal human plan carrying [all-in-one] exists
    assert ap.parts == ()
    assert verify_online(problem, ap).final_check
