"""Grounded STRIPS models, the per-action feature mapping, diffs and edits.

Every model decomposes into unit features: one per (action, precondition
fact), (action, add fact), (action, delete fact), plus exactly one cost
feature per action.  Feature sets are the currency of explanation search.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from dataclasses import field as dataclass_field
from functools import cached_property
from typing import Iterable, Iterator

from .errors import UniverseMismatch, UnknownAction, UnknownFact, UnknownFeature

PRECONDITION = "precondition"
ADD_EFFECT = "add-effect"
DEL_EFFECT = "del-effect"
COST = "cost"

_KINDS = (PRECONDITION, ADD_EFFECT, DEL_EFFECT, COST)
_FACT_FIELDS = {PRECONDITION: "pre", ADD_EFFECT: "add", DEL_EFFECT: "delete"}
_MARKER_RE = re.compile(r"-has-(precondition|add-effect|del-effect|cost)-")


def fact_mask(fids: Iterable[int]) -> int:
    """The bitmask with bit ``f`` set for every fact id ``f`` in ``fids``."""
    m = 0
    for f in fids:
        m |= 1 << f
    return m


@dataclass(frozen=True)
class GroundAction:
    name: str
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]
    cost: int
    # (pre, add, delete) as fact bitmasks, computed once per action object;
    # edited models share every action they do not touch, and with it these.
    # A field, not a cached_property: filling an instance __dict__ after
    # construction makes every later attribute read on the action slower.
    masks: tuple[int, int, int] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.add & self.delete:
            raise ValueError(f"action {self.name!r} adds and deletes the same fact")
        if self.cost < 1:
            raise ValueError(f"action {self.name!r} must have cost >= 1, got {self.cost}")
        object.__setattr__(self, "masks", (
            fact_mask(self.pre), fact_mask(self.add), fact_mask(self.delete)))


@dataclass(frozen=True)
class GroundedModel:
    """A grounded model: fact universe plus ground actions.

    Fact ids are dense indexes into ``fact_names``; action ids are positions
    in ``actions``.
    """

    fact_names: tuple[str, ...]
    actions: tuple[GroundAction, ...]

    def __post_init__(self):
        if len(set(self.fact_names)) != len(self.fact_names):
            raise ValueError("fact names are not unique")
        seen = set()
        for action in self.actions:
            if action.name in seen:
                raise ValueError(f"duplicate ground action {action.name!r}")
            seen.add(action.name)
        self._check_fact_ids(self.actions)

    def _check_fact_ids(self, actions: Iterable[GroundAction]) -> None:
        nf = len(self.fact_names)
        for action in actions:
            for fid in action.pre | action.add | action.delete:
                if not (0 <= fid < nf):
                    raise ValueError(f"action {action.name!r} references fact id {fid}")

    def _replacing(self, replaced: dict[int, GroundAction]) -> "GroundedModel":
        """This model with the actions at the given ids replaced.

        A replacement keeps its action's name, so only the replacements
        need checking; the fact names and every other action are this
        model's and were validated when it was built.
        """
        actions = list(self.actions)
        for aid, action in replaced.items():
            actions[aid] = action
        model = object.__new__(GroundedModel)
        object.__setattr__(model, "fact_names", self.fact_names)
        object.__setattr__(model, "actions", tuple(actions))
        model._check_fact_ids(replaced.values())
        return model

    @cached_property
    def fact_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.fact_names)}

    @cached_property
    def action_ids(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.actions)}

    @property
    def action_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.actions)

    def action(self, name: str) -> GroundAction:
        try:
            return self.actions[self.action_ids[name]]
        except KeyError:
            raise UnknownAction(f"no ground action named {name!r}") from None


@dataclass(frozen=True)
class ModelFeature:
    """One unit feature: a precondition/add/delete fact or the cost of an action."""

    action: str
    kind: str
    payload: str | int  # fact name, or the cost value for kind == COST

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == COST and not isinstance(self.payload, int):
            raise ValueError("cost feature payload must be an integer")
        if self.kind != COST and not isinstance(self.payload, str):
            raise ValueError("fact feature payload must be a fact name")

    @property
    def name(self) -> str:
        return f"{self.action}-has-{self.kind}-{self.payload}"

    def __str__(self) -> str:
        return self.name


def parse_feature_name(name: str, model: GroundedModel) -> ModelFeature:
    """Resolve a canonical feature name against a model's universe.

    Action and fact names may themselves contain hyphens, so every marker
    occurrence is tried until one resolves.
    """
    for m in _MARKER_RE.finditer(name):
        action = name[: m.start()]
        kind = m.group(1)
        payload = name[m.end():]
        if action not in model.action_ids:
            continue
        if kind == COST:
            if payload.isdigit():
                return ModelFeature(action, COST, int(payload))
        elif payload in model.fact_ids:
            return ModelFeature(action, kind, payload)
    raise UnknownFeature(f"feature {name!r} does not resolve against the model")


class FeatureSet:
    """An immutable set of features, iterated in canonical name order."""

    __slots__ = ("_feats", "_names")

    def __init__(self, features: Iterable[ModelFeature] = ()):
        feats = sorted(set(features), key=lambda f: f.name)
        costs_seen = set()
        for f in feats:
            if f.kind == COST:
                if f.action in costs_seen:
                    raise ValueError(f"two cost features for action {f.action!r}")
                costs_seen.add(f.action)
        object.__setattr__(self, "_feats", tuple(feats))
        object.__setattr__(self, "_names", frozenset(f.name for f in feats))

    def __iter__(self) -> Iterator[ModelFeature]:
        return iter(self._feats)

    def __len__(self) -> int:
        return len(self._feats)

    def __bool__(self) -> bool:
        return bool(self._feats)

    def __contains__(self, feature: ModelFeature) -> bool:
        return feature.name in self._names

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSet) and self._feats == other._feats

    def __hash__(self) -> int:
        return hash(self._feats)

    def __or__(self, other: "FeatureSet") -> "FeatureSet":
        return FeatureSet((*self._feats, *other._feats))

    def __sub__(self, other: "FeatureSet") -> "FeatureSet":
        return FeatureSet(f for f in self._feats if f not in other)

    def __and__(self, other: "FeatureSet") -> "FeatureSet":
        return FeatureSet(f for f in self._feats if f in other)

    def issubset(self, other: "FeatureSet") -> bool:
        return self._names <= other._names

    def names(self) -> list[str]:
        return [f.name for f in self._feats]

    def __repr__(self) -> str:
        return f"FeatureSet({self.names()})"


@dataclass(frozen=True)
class ModelDiff:
    missing: FeatureSet  # robot features the human model lacks
    extra: FeatureSet    # human features absent from the robot model

    def to_json(self) -> dict:
        return {"missing": self.missing.names(), "extra": self.extra.names()}


def gamma(model: GroundedModel) -> FeatureSet:
    """Map a model to its full unit-feature set."""
    feats: list[ModelFeature] = []
    for action in model.actions:
        feats.append(ModelFeature(action.name, COST, action.cost))
        for fid in action.pre:
            feats.append(ModelFeature(action.name, PRECONDITION, model.fact_names[fid]))
        for fid in action.add:
            feats.append(ModelFeature(action.name, ADD_EFFECT, model.fact_names[fid]))
        for fid in action.delete:
            feats.append(ModelFeature(action.name, DEL_EFFECT, model.fact_names[fid]))
    return FeatureSet(feats)


def diff(mr: GroundedModel, mh: GroundedModel) -> ModelDiff:
    """Feature-level difference of two models over the same universe.

    Equal to ``gamma(mr) - gamma(mh)`` and ``gamma(mh) - gamma(mr)``, but
    compared action by action, so features are built only where the two
    actions differ.
    """
    if mr.fact_names != mh.fact_names or mr.action_names != mh.action_names:
        raise UniverseMismatch(
            "models do not share fact/action universes; ground them together")
    missing: list[ModelFeature] = []
    extra: list[ModelFeature] = []
    for ar, ah in zip(mr.actions, mh.actions):
        if ar is ah:
            continue
        for kind, field in _FACT_FIELDS.items():
            fr, fh = getattr(ar, field), getattr(ah, field)
            missing += (ModelFeature(ar.name, kind, mr.fact_names[i]) for i in fr - fh)
            extra += (ModelFeature(ar.name, kind, mr.fact_names[i]) for i in fh - fr)
        if ar.cost != ah.cost:
            missing.append(ModelFeature(ar.name, COST, ar.cost))
            extra.append(ModelFeature(ar.name, COST, ah.cost))
    return ModelDiff(missing=FeatureSet(missing), extra=FeatureSet(extra))


def _edited(model: GroundedModel, features: FeatureSet, combine) -> GroundedModel:
    """Rebuild only the actions ``features`` name; reuse every other action.

    Each named fact field becomes ``combine(old facts, named facts)``; a cost
    feature sets the action's cost.
    """
    changes: dict[int, dict] = {}
    for f in features:
        fields = changes.setdefault(model.action_ids[f.action], {})
        if f.kind == COST:
            fields["cost"] = f.payload
        else:
            field = _FACT_FIELDS[f.kind]
            fields[field] = fields.get(field, frozenset()) | {model.fact_ids[f.payload]}
    replaced = {}
    for aid, fields in changes.items():
        action = model.actions[aid]
        for field in fields.keys() - {"cost"}:
            fields[field] = combine(getattr(action, field), fields[field])
        replaced[aid] = replace(action, **fields)
    return model._replacing(replaced)


def apply_features(model: GroundedModel, adds: FeatureSet) -> GroundedModel:
    """Return a new model whose feature set is gamma(model) union ``adds``.

    Adding a cost feature for an action replaces that action's current cost.
    The input model is untouched.
    """
    for f in adds:
        if f.action not in model.action_ids:
            raise UnknownAction(f"feature {f.name!r}: unknown action")
        if f.kind != COST and f.payload not in model.fact_ids:
            raise UnknownFact(f"feature {f.name!r}: unknown fact")
    return _edited(model, adds, frozenset.union)


def remove_features(model: GroundedModel, removals: FeatureSet) -> GroundedModel:
    """Return a new model with ``removals`` deleted from its feature set.

    Cost features cannot be removed (an action always has exactly one cost).
    Every removal must exist in the model; this is how human models are
    derived from robot models in the benchmark harness.
    """
    for f in removals:
        if f.kind == COST:
            raise UnknownFeature(
                f"cost feature {f.name!r} cannot be removed; costs are exchanged, not deleted")
        aid = model.action_ids.get(f.action)
        if aid is None or model.fact_ids.get(f.payload) not in getattr(
                model.actions[aid], _FACT_FIELDS[f.kind]):
            raise UnknownFeature(f"feature {f.name!r} is not present in the model")
    return _edited(model, removals, frozenset.difference)
