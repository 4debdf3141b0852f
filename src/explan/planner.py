"""Deterministic cost-optimal planning and plan utilities.

The search is uniform-cost with a total tie-break: among equal-cost goal
paths the lexicographically smallest action-id sequence wins, which makes
every planner call reproducible.  With all action costs >= 1 the pair
(cost, sequence) increases strictly along edges, so per-state dominance on
that pair is sound and the first goal pop is the canonical optimal plan.
The search holds each sequence as ``bytes``: every action id is encoded
big-endian in the same fixed width, the bytes the model's largest id needs.
With one width and the most significant byte first, comparing two such
strings byte by byte compares the id sequences element by element, and a
proper prefix still sorts first, so the order, the tie-break and every plan
are those of id tuples.  A bytes path is extended and compared in native
code, and heap and dominance entries of ints and bytes hold nothing the
cyclic garbage collector has to walk; the id tuple is decoded once, at the
goal.

Before searching, ``plan_optimal`` computes the facts reachable from the
initial state when delete effects are ignored (the delete relaxation; an
action outside it has h_max = infinity, Bonet & Geffner 2001).  Every state
the search can reach is a subset of those facts, so an action whose
preconditions are not all among them is never applicable and is dropped,
and a goal outside them is unreachable without any search.  The kept
actions keep their ids and their order, so the (cost, sequence) tie-break
and therefore every plan are unchanged.  Grounding prunes nothing, so a
model pair shares one action universe and action ids never shift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .errors import InconsistentTask, PrefixNotExecutable
from .grounding import GroundedTask
from .model import GroundAction, GroundedModel, fact_mask


@dataclass(frozen=True)
class Plan:
    """An action-id sequence; steps are 1-indexed throughout the toolkit."""

    actions: tuple[int, ...]
    cost: int

    def __len__(self) -> int:
        return len(self.actions)

    def action_at(self, step: int) -> int:
        """The action executed at 1-indexed ``step``."""
        return self.actions[step - 1]

    def prefix(self, step: int) -> tuple[int, ...]:
        """The prefix through ``step`` inclusive (empty for step <= 0)."""
        return self.actions[: max(step, 0)]

    def names(self, model: GroundedModel) -> list[str]:
        return [model.actions[a].name for a in self.actions]


@dataclass(frozen=True)
class Invalid:
    """Marks a failed simulation; ``step`` is the first failing step.

    Goal failure is reported as step ``len(plan) + 1``.
    """

    step: int


def _relaxed_reachable(actions: Sequence[GroundAction], init_m: int) -> int:
    """Facts reachable from ``init_m`` when delete effects are ignored.

    Each pass fires every waiting action whose preconditions are all
    reached, adding its add effects; the fixpoint is reached when a pass
    fires nothing.
    """
    reached = init_m
    waiting = [a.masks for a in actions]
    while True:
        blocked = []
        for masks in waiting:
            pre, add, _ = masks
            if pre & reached == pre:
                reached |= add
            else:
                blocked.append(masks)
        if len(blocked) == len(waiting):
            return reached
        waiting = blocked


def _id_width(n_actions: int) -> int:
    """Bytes per encoded action id: what the largest id needs, at least one."""
    return max(1, ((n_actions - 1).bit_length() + 7) // 8)


def _encode_id(aid: int, width: int) -> bytes:
    return aid.to_bytes(width, "big")


def _decode_ids(seq: bytes, width: int) -> tuple[int, ...]:
    if width == 1:
        return tuple(seq)
    return tuple(int.from_bytes(seq[i:i + width], "big")
                 for i in range(0, len(seq), width))


def plan_optimal(model: GroundedModel, init: frozenset[int], goal: frozenset[int]) -> Plan | None:
    """Minimum-cost plan from ``init`` to ``goal``, or None if unreachable.

    Deterministic: equal-cost goal paths resolve to the lexicographically
    smallest action-id sequence, and successor generation follows action-id
    order.  Only actions whose preconditions are relaxed-reachable from
    ``init`` are searched.  Paths are held as fixed-width big-endian id
    bytes, whose order is the id sequences' order (see the module
    docstring).
    """
    init_m = fact_mask(init)
    goal_m = fact_mask(goal)
    reached = _relaxed_reachable(model.actions, init_m)
    if goal_m & reached != goal_m:
        return None
    width = _id_width(len(model.actions))
    live = [(_encode_id(aid, width), *a.masks, a.cost)
            for aid, a in enumerate(model.actions)
            if a.masks[0] & reached == a.masks[0]]

    best: dict[int, tuple[int, bytes]] = {init_m: (0, b"")}
    heap: list[tuple[int, bytes, int]] = [(0, b"", init_m)]
    while heap:
        g, seq, state = heappop(heap)
        if best.get(state) != (g, seq):
            continue  # superseded by a better path
        if state & goal_m == goal_m:
            return Plan(actions=_decode_ids(seq, width), cost=g)
        for code, pre, add, dele, cost in live:
            if state & pre == pre:
                nstate = (state & ~dele) | add
                key = (g + cost, seq + code)
                cur = best.get(nstate)
                if cur is None or key < cur:
                    best[nstate] = key
                    heappush(heap, (key[0], key[1], nstate))
    return None


def validate(
    model: GroundedModel,
    init: frozenset[int],
    goal: frozenset[int],
    plan: Plan | Sequence[int],
) -> int | Invalid:
    """Simulate a plan stepwise; return its total cost or the first bad step."""
    actions = plan.actions if isinstance(plan, Plan) else tuple(plan)
    state = set(init)
    total = 0
    for step, aid in enumerate(actions, start=1):
        act: GroundAction = model.actions[aid]
        if not act.pre <= state:
            return Invalid(step=step)
        state -= act.delete
        state |= act.add
        total += act.cost
    if not goal <= state:
        return Invalid(step=len(actions) + 1)
    return total


def first_diff(p1: Plan, p2: Plan) -> int | None:
    """Smallest 1-indexed step where the plans differ; None if identical.

    When one plan is a proper prefix of the other, the divergence is the
    step just past the shorter plan, so a human who expects a shorter plan
    still counts as diverging at its end.
    """
    a, b = p1.actions, p2.actions
    for i, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return i
    if len(a) == len(b):
        return None
    return min(len(a), len(b)) + 1


def matches_through(reference: Plan, candidate: Plan | None, step: int) -> bool:
    """True if ``candidate`` agrees with ``reference`` on steps 1..step."""
    if candidate is None:
        return step <= 0
    d = first_diff(reference, candidate)
    return d is None or d > step


def plan_distance(p_h: Plan, p_star: Plan) -> float:
    """Action-multiset dissimilarity in [0, 1]; 0 means identical plans."""
    if p_h.actions == p_star.actions:
        return 0.0
    shared = sum((Counter(p_h.actions) & Counter(p_star.actions)).values())
    return 1.0 - shared / max(len(p_h), len(p_star))


# -- forced-prefix compilation ---------------------------------------------------

@dataclass(frozen=True)
class CompiledTask:
    """A task whose goal-reaching plans all start with a forced prefix.

    The prefix runs through duplicated actions chained by fresh facts
    p_0..p_L: copy i consumes p_{i-1} and produces p_i, and every original
    action (and the goal) requires the gate fact p_L.  Duplication, rather
    than editing the original actions in place, keeps repeated or off-prefix
    uses of the same ground action intact, and the gate re-enables the full
    original action set only after the whole prefix has run.
    """

    base: GroundedTask
    forced_prefix: tuple[int, ...]
    task: GroundedTask
    chain_facts: tuple[int, ...]   # ids of p_0..p_L in the compiled task
    gate_fact: int                 # p_L
    forced_actions: tuple[int, ...]  # compiled ids of the prefix copies, in order

    def to_base_action(self, compiled_aid: int) -> int:
        """Map a compiled action id back to the original action id."""
        n_orig = len(self.base.model.actions)
        if compiled_aid < n_orig:
            return compiled_aid
        return self.forced_prefix[compiled_aid - n_orig]


def compile_prefix(task: GroundedTask, prefix: Sequence[int]) -> CompiledTask:
    """Compile ``task`` so that every goal-reaching plan starts with ``prefix``.

    The prefix must be executable from the task's initial state.
    """
    prefix = tuple(prefix)
    state = set(task.init)
    for step, aid in enumerate(prefix, start=1):
        act = task.model.actions[aid]
        if not act.pre <= state:
            raise PrefixNotExecutable(step)
        state -= act.delete
        state |= act.add

    model = task.model
    length = len(prefix)
    existing = set(model.fact_names)
    stem = "+stage"
    while any(f"{stem}-{i}" in existing for i in range(length + 1)):
        stem += "+"
    chain_names = tuple(f"{stem}-{i}" for i in range(length + 1))
    fact_names = model.fact_names + chain_names
    chain_ids = tuple(range(len(model.fact_names), len(fact_names)))
    gate = chain_ids[-1]

    originals = tuple(
        GroundAction(name=a.name, pre=a.pre | {gate}, add=a.add,
                     delete=a.delete, cost=a.cost)
        for a in model.actions
    )
    copies = []
    for i, aid in enumerate(prefix, start=1):
        a = model.actions[aid]
        copies.append(GroundAction(
            name=f"{stem}-{i} {a.name}",
            pre=a.pre | {chain_ids[i - 1]},
            add=a.add | {chain_ids[i]},
            delete=a.delete | {chain_ids[i - 1]},
            cost=a.cost,
        ))
    compiled_model = GroundedModel(fact_names=fact_names,
                                   actions=originals + tuple(copies))
    compiled = GroundedTask(
        model=compiled_model,
        init=task.init | {chain_ids[0]},
        goal=task.goal | {gate},
    )
    n_orig = len(model.actions)
    return CompiledTask(
        base=task,
        forced_prefix=prefix,
        task=compiled,
        chain_facts=chain_ids,
        gate_fact=gate,
        forced_actions=tuple(range(n_orig, n_orig + length)),
    )


def exists_optimal_with_prefix(
    model: GroundedModel,
    init: frozenset[int],
    goal: frozenset[int],
    prefix: Sequence[int],
    optimum: Plan | None,
) -> bool:
    """Whether some optimal plan starts with ``prefix``.

    ``optimum`` is the caller's ``plan_optimal(model, init, goal)``.  Some
    optimal plan carries the prefix exactly when the optimum of the
    prefix-forced compilation costs the same.
    """
    if optimum is None:
        raise InconsistentTask("the unconstrained task is unsolvable")
    compiled = compile_prefix(GroundedTask(model=model, init=init, goal=goal), prefix)
    forced = plan_optimal(compiled.task.model, compiled.task.init, compiled.task.goal)
    return forced is not None and forced.cost == optimum.cost
