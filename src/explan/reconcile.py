"""Explanation generators for reconciling a human model with the robot's.

Explanations are sets of unit feature additions to the human model.  The
offline baseline (``mce``) finds a minimum set after which the robot's plan
is optimal for the human; the online generators split the work into
scheduled sub-explanations, each tied to a plan step, under three different
consistency contracts:

* prefix-preserving (``oeg_pp``): after part k the human's expected plan
  agrees with the robot's plan on everything executed so far;
* next-action (``oeg_na``): only the position about to execute must match,
  with no retrospective repair;
* any-prefix (``oeg_ap``): some optimal plan of the human model must carry
  the executed prefix, dropping the unique-optimum assumption.

All subset searches go breadth-first by cardinality and lexicographically
within a level, so results are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator

from .errors import (
    ExtraFeatures,
    InconsistentTask,
    NonCanonicalPlan,
    NonOptimalPlan,
    NotReconcilable,
    PrefixNotExecutable,
    SearchExhausted,
)
from .model import (
    FeatureSet,
    GroundedModel,
    ModelDiff,
    apply_features,
    diff,
)
from .planner import (
    Invalid,
    Plan,
    exists_optimal_with_prefix,
    first_diff,
    matches_through,
    plan_distance,
    plan_optimal,
    validate,
)

VARIANT_PP = "oeg-pp"
VARIANT_NA = "oeg-na"
VARIANT_AP = "oeg-ap"
VARIANT_MCER = "mce-r"
VARIANTS = (VARIANT_PP, VARIANT_NA, VARIANT_AP, VARIANT_MCER)


@dataclass(frozen=True)
class ReconciliationProblem:
    """A robot plan to explain, plus the two models it must reconcile.

    The problem memoises planner results over the human model plus a
    feature subset, so every generator and the verifier share one cache.
    The results are deterministic, so the memo never changes an answer.
    """

    robot_model: GroundedModel
    human_model: GroundedModel
    init: frozenset[int]
    goal: frozenset[int]
    robot_plan: Plan
    _models: dict[FeatureSet, GroundedModel] = field(
        init=False, compare=False, repr=False, default_factory=dict)
    _plans: dict[FeatureSet, Plan | None] = field(
        init=False, compare=False, repr=False, default_factory=dict)
    _prefix_ok: dict[tuple[FeatureSet, int], bool] = field(
        init=False, compare=False, repr=False, default_factory=dict)

    @classmethod
    def build(
        cls,
        robot_model: GroundedModel,
        human_model: GroundedModel,
        init: frozenset[int],
        goal: frozenset[int],
        robot_plan: Plan | None = None,
    ) -> "ReconciliationProblem":
        """Validate and construct; ``robot_plan`` defaults to the canonical optimum.

        Rejects human models with features outside the robot model, and robot
        plans that are invalid or not cost-optimal under the robot model.
        """
        d = diff(robot_model, human_model)
        if d.extra:
            raise ExtraFeatures(d.extra.names())
        optimal = plan_optimal(robot_model, init, goal)
        if optimal is None:
            raise InconsistentTask("the robot task is unsolvable")
        if robot_plan is None:
            robot_plan = optimal
        else:
            cost = validate(robot_model, init, goal, robot_plan)
            if isinstance(cost, Invalid):
                raise NonOptimalPlan(
                    f"the robot plan fails validation at step {cost.step}")
            if cost != optimal.cost:
                raise NonOptimalPlan(
                    f"the robot plan costs {cost}, optimal is {optimal.cost}")
            robot_plan = Plan(actions=tuple(robot_plan.actions), cost=cost)
        problem = cls(robot_model=robot_model, human_model=human_model,
                      init=init, goal=goal, robot_plan=robot_plan)
        vars(problem)["model_diff"] = d  # fills the cached property
        # the human model plus the whole diff is the robot model
        problem._plans[d.missing] = optimal
        return problem

    @cached_property
    def model_diff(self) -> ModelDiff:
        return diff(self.robot_model, self.human_model)

    @property
    def missing(self) -> FeatureSet:
        return self.model_diff.missing

    def model(self, applied: FeatureSet) -> GroundedModel:
        """The human model after adding ``applied``."""
        cached = self._models.get(applied)
        if cached is None:
            cached = apply_features(self.human_model, applied)
            self._models[applied] = cached
        return cached

    def plan(self, applied: FeatureSet) -> Plan | None:
        """The canonical optimal plan of ``model(applied)``."""
        if applied not in self._plans:
            self._plans[applied] = plan_optimal(self.model(applied), self.init, self.goal)
        return self._plans[applied]

    def prefix_ok(self, applied: FeatureSet, step: int) -> bool:
        """Whether some optimal plan of ``model(applied)`` carries the prefix.

        The empty prefix is vacuously carried (nothing executed yet needs
        justifying).  Otherwise an unsolvable model has no optimal plans and
        an inexecutable prefix is carried by none, so both answer False
        rather than erroring.
        """
        if step <= 0:
            return True
        key = (applied, step)
        if key not in self._prefix_ok:
            try:
                self._prefix_ok[key] = exists_optimal_with_prefix(
                    self.model(applied), self.init, self.goal,
                    self.robot_plan.prefix(step), self.plan(applied))
            except (PrefixNotExecutable, InconsistentTask):
                self._prefix_ok[key] = False
        return self._prefix_ok[key]


@dataclass(frozen=True)
class SubExplanation:
    """A feature set communicated before executing plan step ``step``."""

    features: FeatureSet
    step: int

    def __post_init__(self):
        if not self.features:
            raise ValueError("a sub-explanation must carry at least one feature")
        if self.step < 1:
            raise ValueError("steps are 1-indexed")


@dataclass(frozen=True)
class OnlineExplanation:
    variant: str
    parts: tuple[SubExplanation, ...]
    fallback: bool = False                  # search gave up; final part is the rest
    unfixable_steps: tuple[int, ...] = ()   # next-action positions no subset fixed
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        steps = [p.step for p in self.parts]
        if steps != sorted(steps) or len(set(steps)) != len(steps):
            raise ValueError("sub-explanation steps must be strictly increasing")
        union: FeatureSet = FeatureSet()
        for p in self.parts:
            if p.features & union:
                raise ValueError("sub-explanations must be pairwise disjoint")
            union = union | p.features

    @property
    def features(self) -> FeatureSet:
        out = FeatureSet()
        for p in self.parts:
            out = out | p.features
        return out

    @property
    def total_features(self) -> int:
        return len(self.features)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def avg_part_size(self) -> float:
        return self.total_features / self.num_parts if self.parts else 0.0

    def to_json(self, final_distance: float | None = None) -> dict:
        doc: dict = {
            "variant": self.variant,
            "parts": [
                {"step": p.step, "features": p.features.names()} for p in self.parts
            ],
            "total_features": self.total_features,
            "avg_part_size": self.avg_part_size,
        }
        if final_distance is not None:
            doc["final_distance"] = final_distance
        if self.fallback:
            doc["fallback"] = True
        if self.unfixable_steps:
            doc["unfixable_steps"] = list(self.unfixable_steps)
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


def _subsets(features: FeatureSet, include_empty: bool = False) -> Iterator[FeatureSet]:
    """Subsets in (cardinality, lexicographic) order; the determinism contract."""
    feats = tuple(features)
    for k in range(0 if include_empty else 1, len(feats) + 1):
        for combo in combinations(feats, k):
            yield FeatureSet(combo)


def _require_canonical(problem: ReconciliationProblem) -> None:
    canonical = problem.plan(problem.missing)
    if canonical is None or canonical.actions != problem.robot_plan.actions:
        raise NonCanonicalPlan(
            "the supplied robot plan is not the canonical planner output; "
            "prefix- and next-action explanations are undefined for it")


def _divergence(pstar: Plan, human: Plan | None) -> int | None:
    """First 1-indexed step where the human's expectation departs from the plan."""
    if human is None:
        return 1
    return first_diff(pstar, human)


# -- offline baseline ------------------------------------------------------------


def mce(problem: ReconciliationProblem) -> FeatureSet:
    """Minimum-cardinality feature set making the robot plan optimal for the human.

    Subsets are tried breadth-first by size, lexicographically within a size,
    and the first complete one wins.
    """
    pstar = problem.robot_plan
    for delta in _subsets(problem.missing, include_empty=True):
        updated = problem.model(delta)
        cost = validate(updated, problem.init, problem.goal, pstar)
        if isinstance(cost, Invalid):
            continue
        optimal = problem.plan(delta)
        if optimal is not None and optimal.cost == cost:
            return delta
    raise NotReconcilable(
        "even the full feature diff is not a complete explanation; "
        "this cannot happen for a valid reconciliation problem")


def mce_random(problem: ReconciliationProblem, seed: int) -> OnlineExplanation:
    """The ``mce`` result randomly split into parts spread uniformly over the plan.

    Part count k is drawn uniformly from 1..len(mce); features are shuffled
    and cut into that many nonempty runs; part j is scheduled before step
    ``(j-1)*len(plan)//k + 1``.  Deterministic for a given seed.
    """
    base = mce(problem)
    if not base:
        return OnlineExplanation(variant=VARIANT_MCER, parts=())
    rng = random.Random(seed)
    feats = list(base)
    n = len(feats)
    k = rng.randrange(1, n + 1)
    # Fisher-Yates so the draw sequence stays pinned to randrange only
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        feats[i], feats[j] = feats[j], feats[i]
    cut_pool = list(range(1, n))
    cuts: list[int] = []
    for _ in range(k - 1):
        cuts.append(cut_pool.pop(rng.randrange(len(cut_pool))))
    cuts = sorted(cuts)
    runs = [feats[a:b] for a, b in zip([0, *cuts], [*cuts, n])]

    horizon = len(problem.robot_plan)
    scheduled: dict[int, FeatureSet] = {}
    for j, run in enumerate(runs, start=1):
        step = (j - 1) * horizon // k + 1 if horizon else 1
        merged = scheduled.get(step, FeatureSet()) | FeatureSet(run)
        scheduled[step] = merged
    parts = tuple(SubExplanation(features=fs, step=step)
                  for step, fs in sorted(scheduled.items()))
    return OnlineExplanation(variant=VARIANT_MCER, parts=parts)


# -- online generators -------------------------------------------------------------


def _append_part(parts: list[SubExplanation], features: FeatureSet,
                 step: int) -> list[SubExplanation]:
    """Append a part, merging into the last one on a step collision."""
    if parts and parts[-1].step == step:
        merged = SubExplanation(features=parts[-1].features | features, step=step)
        return [*parts[:-1], merged]
    return [*parts, SubExplanation(features=features, step=step)]


def oeg_pp(problem: ReconciliationProblem, mode: str = "approx",
           exact_threshold: int = 12) -> OnlineExplanation:
    """Prefix-preserving online explanation.

    Approximate mode greedily takes, at each divergence step, the smallest
    feature subset whose updated plan agrees with the robot plan through
    that step, backtracking chronologically over candidates if a later step
    cannot be repaired.  Exact mode instead keeps the largest remainder
    whose every in-between model already preserves the prefix, so parts can
    never be invalidated later; it needs 2^|remainder| planner calls per
    candidate and is gated on the diff size.
    """
    if mode not in ("approx", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_canonical(problem)
    missing = problem.missing

    notes: tuple[str, ...] = ()
    if mode == "exact" and len(missing) > exact_threshold:
        mode = "approx"
        notes = (f"diff size {len(missing)} exceeds the exact-mode threshold "
                 f"{exact_threshold}; fell back to approximate search",)

    if mode == "exact":
        parts = _pp_exact(problem)
        return OnlineExplanation(variant=VARIANT_PP, parts=tuple(parts), notes=notes)

    parts, fallback = _pp_approx(problem)
    return OnlineExplanation(variant=VARIANT_PP, parts=tuple(parts),
                             fallback=fallback, notes=notes)


def _pp_approx(problem: ReconciliationProblem) -> tuple[list[SubExplanation], bool]:
    pstar, missing = problem.robot_plan, problem.missing
    horizon = len(pstar)

    def frame_for(applied: FeatureSet, parts: list[SubExplanation]):
        plan = problem.plan(applied)
        d = _divergence(pstar, plan)
        return None if d is None else (iter(_subsets(missing - applied)), applied, parts, d)

    top = frame_for(FeatureSet(), [])
    if top is None:
        return [], False
    first_divergence = top[3]
    stack = [top]
    while stack:
        candidates, applied, parts, d = stack[-1]
        chosen: FeatureSet | None = None
        for e in candidates:
            if matches_through(pstar, problem.plan(applied | e), d):
                chosen = e
                break
        if chosen is None:
            stack.pop()  # exhausted; resume the previous step's candidates
            continue
        next_applied = applied | chosen
        next_parts = _append_part(parts, chosen, min(d, horizon))
        frame = frame_for(next_applied, next_parts)
        if frame is None:
            return next_parts, False
        stack.append(frame)

    # exhausted every candidate chain: emit whatever is left in one flagged part
    plan = problem.plan(missing)
    assert _divergence(pstar, plan) is None, "full diff must recreate the robot model"
    return _append_part([], missing, min(first_divergence, horizon) if horizon else 1), True


def _pp_exact(problem: ReconciliationProblem) -> list[SubExplanation]:
    pstar, missing = problem.robot_plan, problem.missing
    horizon = len(pstar)
    applied = FeatureSet()
    parts: list[SubExplanation] = []
    while True:
        d = _divergence(pstar, problem.plan(applied))
        if d is None:
            return parts
        remaining = missing - applied
        for e in _subsets(remaining):
            holdout = remaining - e
            # the prefix must survive under every model reachable by the
            # remaining explanations, i.e. the robot model minus any subset
            # of the holdout
            if all(
                matches_through(pstar, problem.plan(missing - FeatureSet(s)), d)
                for k in range(len(holdout) + 1)
                for s in combinations(tuple(holdout), k)
            ):
                applied = applied | e
                parts = _append_part(parts, e, min(d, horizon))
                break
        else:  # pragma: no cover - the full remainder always qualifies
            raise AssertionError("exact search found no candidate")


def oeg_na(problem: ReconciliationProblem) -> OnlineExplanation:
    """Next-action online explanation.

    Scans plan positions left to right; whenever the human's current
    expectation disagrees at the position about to execute, adds the
    smallest feature subset making that one position match.  Earlier
    positions are never re-checked and nothing backtracks, so later parts
    may silently reshuffle already-executed steps.
    """
    _require_canonical(problem)
    pstar = problem.robot_plan
    missing = problem.missing

    applied = FeatureSet()
    parts: list[SubExplanation] = []
    unfixable: list[int] = []
    plan = problem.plan(applied)
    for t in range(1, len(pstar) + 1):
        want = pstar.action_at(t)
        have = plan.action_at(t) if plan is not None and t <= len(plan) else None
        if have == want:
            continue
        for e in _subsets(missing - applied):
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


def oeg_ap(problem: ReconciliationProblem) -> OnlineExplanation:
    """Any-prefix online explanation.

    Walks the robot plan and, whenever no optimal plan of the current human
    model carries the executed prefix, adds the smallest feature subset
    restoring one.  The uniqueness assumption is dropped: the supplied robot
    plan need not be the canonical planner output.
    """
    pstar = problem.robot_plan
    missing = problem.missing

    applied = FeatureSet()
    parts: list[SubExplanation] = []
    t = 1
    while t <= len(pstar):
        if problem.prefix_ok(applied, t):
            t += 1
            continue
        for e in _subsets(missing - applied):
            if problem.prefix_ok(applied | e, t):
                applied = applied | e
                parts.append(SubExplanation(features=e, step=t))
                break
        else:  # pragma: no cover - the full remainder restores the robot model
            raise SearchExhausted(f"no feature subset restores the prefix at step {t}")
    assert problem.prefix_ok(applied, len(pstar))
    return OnlineExplanation(variant=VARIANT_AP, parts=tuple(parts))


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class StepCheck:
    index: int            # k, 1-indexed over parts
    step: int             # the part's plan step t_k
    holds: bool
    witness: tuple[str, ...]  # the human's expected plan before this part


@dataclass(frozen=True)
class VerificationReport:
    variant: str
    per_step: tuple[StepCheck, ...]
    final_check: bool
    distance: float
    notes: tuple[str, ...] = ()

    @property
    def verified(self) -> bool:
        return self.final_check and all(c.holds for c in self.per_step)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "per_step": [
                {"k": c.index, "step": c.step, "holds": c.holds,
                 "witness": list(c.witness)}
                for c in self.per_step
            ],
            "final_check": self.final_check,
            "distance": self.distance,
            "verified": self.verified,
            "notes": list(self.notes),
        }


def _segment_equal(pstar: Plan, plan: Plan | None, lo: int, hi: int) -> bool:
    """Pointwise equality on 1-indexed positions lo..hi inclusive."""
    if lo > hi:
        return True
    if plan is None or len(plan) < hi:
        return False
    return all(plan.action_at(t) == pstar.action_at(t) for t in range(lo, hi + 1))


def verify_online(problem: ReconciliationProblem,
                  explanation: OnlineExplanation) -> VerificationReport:
    """Replay an explanation and check its variant's defining condition.

    Re-plans after every part.  Per-part checks look at the human model
    *before* the part is applied (the state in which it was scheduled); the
    final check is variant-specific: exact plan equality for prefix mode,
    the recorded trigger matches for next-action mode, an any-prefix
    existence check for any-prefix mode, and plan-cost completeness for
    randomly split explanations.  Failures are report entries, not errors.
    """
    if not explanation.features.issubset(problem.missing):
        raise ExtraFeatures(
            (explanation.features - problem.missing).names())
    pstar = problem.robot_plan
    variant = explanation.variant

    checks: list[StepCheck] = []
    na_triggers: list[bool] = []
    notes: list[str] = list(explanation.notes)
    applied = FeatureSet()
    prev_step = 1  # segment lower bound for next-action checks
    for k, part in enumerate(explanation.parts, start=1):
        before = problem.plan(applied)
        witness = tuple(before.names(problem.human_model)) if before else ()
        if variant == VARIANT_PP:
            holds = matches_through(pstar, before, part.step - 1)
        elif variant == VARIANT_NA:
            holds = _segment_equal(pstar, before, prev_step, part.step - 1)
        elif variant == VARIANT_AP:
            holds = problem.prefix_ok(applied, part.step - 1)
        else:
            holds = True  # random splits promise nothing per step
        checks.append(StepCheck(index=k, step=part.step, holds=holds, witness=witness))
        applied = applied | part.features
        if variant == VARIANT_NA:
            after = problem.plan(applied)
            na_triggers.append(
                after is not None and part.step <= len(after)
                and after.action_at(part.step) == pstar.action_at(part.step))
            prev_step = part.step
    final_plan = problem.plan(applied)

    if variant == VARIANT_PP:
        final_check = final_plan is not None and final_plan.actions == pstar.actions
    elif variant == VARIANT_NA:
        final_check = all(na_triggers)
    elif variant == VARIANT_AP:
        final_check = problem.prefix_ok(applied, len(pstar))
    else:
        cost = validate(problem.model(applied), problem.init, problem.goal, pstar)
        final_check = (not isinstance(cost, Invalid)
                       and final_plan is not None and cost == final_plan.cost)

    if final_plan is None:
        distance = 1.0
        notes.append("the final human model cannot reach the goal")
    else:
        distance = plan_distance(final_plan, pstar)
    return VerificationReport(variant=variant, per_step=tuple(checks),
                              final_check=final_check, distance=distance,
                              notes=tuple(notes))
