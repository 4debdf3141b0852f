from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explan.errors import UniverseMismatch, UnknownAction, UnknownFact, UnknownFeature
from explan.model import (
    ADD_EFFECT,
    COST,
    DEL_EFFECT,
    PRECONDITION,
    FeatureSet,
    GroundAction,
    GroundedModel,
    ModelFeature,
    apply_features,
    diff,
    gamma,
    parse_feature_name,
    remove_features,
)


def _action(name, pre=(), add=(), delete=(), cost=1):
    return GroundAction(name=name, pre=frozenset(pre), add=frozenset(add),
                        delete=frozenset(delete), cost=cost)


@pytest.fixture
def toy():
    return GroundedModel(
        fact_names=("calibrated", "communicated", "have-image"),
        actions=(
            _action("calibrate", add={0}),
            _action("communicate", pre={2}, add={1}),
            _action("take-image", pre={0}, add={2}),
        ),
    )


def test_gamma_single_action():
    model = GroundedModel(
        fact_names=("calibrated",),
        actions=(_action("calibrate", add={0}),),
    )
    assert gamma(model).names() == [
        "calibrate-has-add-effect-calibrated",
        "calibrate-has-cost-1",
    ]


def test_gamma_empty_model():
    model = GroundedModel(fact_names=("f",), actions=())
    assert len(gamma(model)) == 0


def test_gamma_minirover_robot_has_eight_features(minirover):
    assert len(gamma(minirover.robot_model)) == 8


def test_diff_identical_models(toy):
    d = diff(toy, toy)
    assert not d.missing and not d.extra


def test_diff_missing_precondition(minirover):
    d = diff(minirover.robot_model, minirover.human_model)
    assert d.missing.names() == ["take-image-has-precondition-calibrated"]
    assert not d.extra


def test_diff_cost_change_is_exchange(toy):
    pricier = apply_features(
        toy, FeatureSet([ModelFeature("take-image", COST, 2)]))
    d = diff(toy, pricier)
    assert d.missing.names() == ["take-image-has-cost-1"]
    assert d.extra.names() == ["take-image-has-cost-2"]


def test_diff_requires_shared_universe(toy):
    other = GroundedModel(fact_names=("a", "b", "c"), actions=toy.actions)
    with pytest.raises(UniverseMismatch):
        diff(toy, other)


def test_diff_json_shape(minirover):
    doc = json.loads(json.dumps(diff(minirover.robot_model,
                                     minirover.human_model).to_json()))
    assert doc == {"missing": ["take-image-has-precondition-calibrated"],
                   "extra": []}


def test_apply_empty_is_identity(toy):
    assert apply_features(toy, FeatureSet()) == toy


def test_apply_missing_recovers_robot_model(minirover):
    d = diff(minirover.robot_model, minirover.human_model)
    rebuilt = apply_features(minirover.human_model, d.missing)
    assert rebuilt == minirover.robot_model


def test_apply_cost_feature_replaces_old(toy):
    updated = apply_features(toy, FeatureSet([ModelFeature("calibrate", COST, 3)]))
    assert updated.action("calibrate").cost == 3
    feats = gamma(updated).names()
    assert "calibrate-has-cost-3" in feats
    assert "calibrate-has-cost-1" not in feats


def test_apply_unknown_action_rejected(toy):
    with pytest.raises(UnknownAction):
        apply_features(toy, FeatureSet([ModelFeature("fly", COST, 1)]))


def test_apply_unknown_fact_rejected(toy):
    with pytest.raises(UnknownFact):
        apply_features(toy, FeatureSet([ModelFeature("calibrate", PRECONDITION, "warp")]))


def test_model_rejects_duplicate_action_names(toy):
    with pytest.raises(ValueError, match="duplicate ground action"):
        GroundedModel(fact_names=toy.fact_names,
                      actions=toy.actions + (_action("calibrate", add={1}),))


def test_model_rejects_out_of_range_fact_id(toy):
    with pytest.raises(ValueError, match="references fact id 3"):
        GroundedModel(fact_names=toy.fact_names,
                      actions=toy.actions + (_action("fly", pre={3}),))


def test_remove_features_requires_presence(toy):
    ghost = FeatureSet([ModelFeature("calibrate", "precondition", "have-image")])
    with pytest.raises(UnknownFeature):
        remove_features(toy, ghost)


def test_parse_feature_name_round_trip(rover):
    for feature in gamma(rover.robot_model):
        assert parse_feature_name(feature.name, rover.robot_model) == feature


def test_parse_feature_name_rejects_garbage(toy):
    with pytest.raises(UnknownFeature):
        parse_feature_name("warp-has-precondition-nothing", toy)


def test_feature_sets_order_and_ops():
    a = ModelFeature("b", "precondition", "x")
    b = ModelFeature("a", "add-effect", "y")
    fs = FeatureSet([a, b, a])
    assert fs.names() == ["a-has-add-effect-y", "b-has-precondition-x"]
    assert len(fs) == 2
    assert (fs - FeatureSet([a])).names() == ["a-has-add-effect-y"]
    assert FeatureSet([a]).issubset(fs)


def test_one_cost_feature_per_action_enforced():
    with pytest.raises(ValueError):
        FeatureSet([ModelFeature("a", COST, 1), ModelFeature("a", COST, 2)])


# -- property tests ----------------------------------------------------------------


def _draw_action(draw, name: str, n_facts: int) -> GroundAction:
    ids = st.sets(st.integers(0, n_facts - 1), max_size=n_facts)
    add = draw(ids)
    delete = draw(ids) - add
    return GroundAction(
        name=name,
        pre=frozenset(draw(ids)),
        add=frozenset(add),
        delete=frozenset(delete),
        cost=draw(st.integers(1, 4)),
    )


@st.composite
def models(draw):
    n_facts = draw(st.integers(2, 5))
    fact_names = tuple(f"f{i}" for i in range(n_facts))
    n_actions = draw(st.integers(1, 4))
    actions = tuple(_draw_action(draw, f"act{i}", n_facts) for i in range(n_actions))
    return GroundedModel(fact_names=fact_names, actions=actions)


@settings(max_examples=60, deadline=None)
@given(models())
def test_gamma_round_trip(model):
    # every fact feature stripped, then all of gamma added back
    facts = FeatureSet(f for f in gamma(model) if f.kind != COST)
    rebuilt = apply_features(remove_features(model, facts), gamma(model))
    assert gamma(rebuilt) == gamma(model)
    assert rebuilt == model


@st.composite
def models_and_additions(draw):
    """A model plus a feature set to add over its universe, costs included.

    No addition makes an action add and delete the same fact.
    """
    model = draw(models())
    adds = []
    for action in model.actions:
        for fact in draw(st.sets(st.sampled_from(model.fact_names), max_size=3)):
            kind = draw(st.sampled_from((PRECONDITION, ADD_EFFECT, DEL_EFFECT)))
            clash = {ADD_EFFECT: action.delete, DEL_EFFECT: action.add}.get(kind, ())
            if model.fact_ids[fact] not in clash:
                adds.append(ModelFeature(action.name, kind, fact))
        cost = draw(st.none() | st.integers(1, 4))
        if cost is not None:
            adds.append(ModelFeature(action.name, COST, cost))
    return model, FeatureSet(adds)


@settings(max_examples=80, deadline=None)
@given(models_and_additions())
def test_apply_features_gamma(case):
    model, adds = case
    recosted = {f.action: f.payload for f in adds if f.kind == COST}
    retired = FeatureSet(
        f for f in gamma(model)
        if f.kind == COST and f.action in recosted and f.payload != recosted[f.action])
    assert gamma(apply_features(model, adds)) == (gamma(model) - retired) | adds


@st.composite
def model_pairs(draw):
    """Two models over one universe; some actions are the same object."""
    model = draw(models())
    actions = tuple(
        a if draw(st.booleans()) else _draw_action(draw, a.name, len(model.fact_names))
        for a in model.actions)
    return model, GroundedModel(fact_names=model.fact_names, actions=actions)


@settings(max_examples=80, deadline=None)
@given(model_pairs())
def test_diff_matches_gamma(pair):
    mr, mh = pair
    d = diff(mr, mh)
    assert d.missing == gamma(mr) - gamma(mh)
    assert d.extra == gamma(mh) - gamma(mr)


@settings(max_examples=60, deadline=None)
@given(models(), st.randoms(use_true_random=False))
def test_apply_monotonicity(model, rng):
    # dropping some non-cost features and re-adding a subset grows gamma exactly
    removable = [f for f in gamma(model) if f.kind != COST]
    rng.shuffle(removable)
    removed = FeatureSet(removable[: len(removable) // 2])
    human = remove_features(model, removed)
    missing = diff(model, human).missing
    some = FeatureSet(list(missing)[: max(1, len(missing) // 2)]) if missing else FeatureSet()
    grown = apply_features(human, some)
    assert gamma(grown) == gamma(human) | some
    assert gamma(apply_features(human, missing)) == gamma(model)
