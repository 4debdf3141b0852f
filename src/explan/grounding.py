"""Grounding of parsed PDDL into propositional tasks.

No reachability pruning is applied: a reconciliation pair must ground to the
same action universe, and pruning against one model could drop actions the
other still needs.  Fact and action ids are assigned in lexicographic order
of their canonical strings, so grounding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ArityMismatch, GroundingError, TypeMismatch, UndeclaredSymbol
from .model import GroundAction, GroundedModel
from .pddl import Atom, DomainAST, ProblemAST


@dataclass(frozen=True)
class GroundedTask:
    model: GroundedModel
    init: frozenset[int]
    goal: frozenset[int]

    @property
    def fact_names(self) -> tuple[str, ...]:
        return self.model.fact_names

    @property
    def action_names(self) -> tuple[str, ...]:
        return self.model.action_names


def _canonical(atom: Atom) -> str:
    return " ".join(atom)


def _type_closure(domain: DomainAST) -> dict[str, set[str]]:
    """Map each type to itself plus all its descendants."""
    children: dict[str, set[str]] = {}
    for typ, parent in domain.types:
        children.setdefault(parent, set()).add(typ)
    all_types = {"object"} | {t for t, _ in domain.types} | set(children)
    closure: dict[str, set[str]] = {}

    def descend(t: str) -> set[str]:
        if t in closure:
            return closure[t]
        out = {t}
        for child in children.get(t, ()):
            out |= descend(child)
        closure[t] = out
        return out

    for t in all_types:
        descend(t)
    return closure


def ground(domain: DomainAST, problem: ProblemAST) -> GroundedTask:
    """Instantiate schemas over typed objects and index the fact universe."""
    if problem.domain_name != domain.name:
        raise UndeclaredSymbol(
            f"problem is for domain {problem.domain_name!r}, got {domain.name!r}")

    closure = _type_closure(domain)
    objects_by_type: dict[str, list[str]] = {}
    object_type: dict[str, str] = {}
    for name, typ in problem.objects:
        if typ not in closure:
            raise UndeclaredSymbol(f"object {name!r} has undeclared type {typ!r}")
        object_type[name] = typ
    for typ, members in closure.items():
        objects_by_type[typ] = sorted(
            name for name, t in object_type.items() if t in members)

    arities = domain.predicate_arities()
    pred_params = dict(domain.predicates)

    def check_ground_atom(atom: Atom, where: str) -> None:
        pred, args = atom[0], atom[1:]
        if pred not in arities:
            raise UndeclaredSymbol(f"predicate {pred!r} in {where} is not declared")
        if len(args) != arities[pred]:
            raise ArityMismatch(
                f"predicate {pred!r} takes {arities[pred]} argument(s), "
                f"got {len(args)} in {where}")
        for arg, (_, typ) in zip(args, pred_params[pred]):
            if object_type.get(arg) not in closure[typ]:
                raise TypeMismatch(
                    f"object {arg!r} is not of type {typ!r} in {where} atom {atom}")

    for atom in problem.init:
        check_ground_atom(atom, "init")
    for atom in problem.goal:
        check_ground_atom(atom, "goal")

    # instantiate every schema over all type-correct object combinations:
    # its name and atoms compile once into one format string over the
    # parameter positions, filled and split for each combination (names are
    # PDDL identifiers, so none holds a brace or a line break)
    facts = {_canonical(a) for a in (*problem.init, *problem.goal)}
    raw_actions: list[tuple[str, list[str], list[str], list[str], int]] = []

    for schema in domain.schemas:
        if schema.cost < 1:
            raise GroundingError(
                f"action {schema.name!r} has cost {schema.cost}; "
                "grounded actions must cost at least 1")
        domains = []
        for var, typ in schema.params:
            if typ not in objects_by_type:
                raise UndeclaredSymbol(
                    f"type {typ!r} in action {schema.name!r} is not declared")
            domains.append(objects_by_type[typ])
        slot = {var: f"{{{i}}}" for i, (var, _) in enumerate(schema.params)}
        template = "\n".join(
            _canonical((atom[0], *(slot[a] for a in atom[1:])))
            for atom in ((schema.name, *slot), *schema.pre, *schema.add, *schema.delete))
        end_pre = 1 + len(schema.pre)
        end_add = end_pre + len(schema.add)
        for combo in product(*domains):
            filled = template.format(*combo).split("\n")
            pre, add = filled[1:end_pre], filled[end_pre:end_add]
            added = set(add)
            # PDDL applies deletes before adds, so adds win on overlap
            delete = [f for f in filled[end_add:] if f not in added]
            raw_actions.append((filled[0], pre, add, delete, schema.cost))
            facts.update(pre, add, delete)

    fact_names = tuple(sorted(facts))
    fact_ids = {name: i for i, name in enumerate(fact_names)}
    fid = fact_ids.__getitem__

    actions = tuple(
        GroundAction(
            name=name,
            pre=frozenset(map(fid, pre)),
            add=frozenset(map(fid, add)),
            delete=frozenset(map(fid, delete)),
            cost=cost,
        )
        for name, pre, add, delete, cost in sorted(raw_actions)
    )
    model = GroundedModel(fact_names=fact_names, actions=actions)
    return GroundedTask(
        model=model,
        init=frozenset(fact_ids[_canonical(a)] for a in problem.init),
        goal=frozenset(fact_ids[_canonical(a)] for a in problem.goal),
    )


def align_universes(a: GroundedTask, b: GroundedTask) -> tuple[GroundedTask, GroundedTask]:
    """Re-index two tasks over the union of their fact universes.

    A reconciliation pair parsed from two domain files may disagree on which
    atoms occur (a missing precondition can make a fact vanish from one
    side); diffs require one shared universe.  Action name sets must already
    agree.
    """
    if a.action_names != b.action_names:
        raise GroundingError(
            "the two domains ground to different action sets; "
            "they must declare the same schemas over the same objects")
    fact_names = tuple(sorted(set(a.fact_names) | set(b.fact_names)))
    fact_ids = {name: i for i, name in enumerate(fact_names)}

    def remap(task: GroundedTask) -> GroundedTask:
        old = task.fact_names

        def ids(fids: frozenset[int]) -> frozenset[int]:
            return frozenset(fact_ids[old[i]] for i in fids)

        actions = tuple(
            GroundAction(name=act.name, pre=ids(act.pre), add=ids(act.add),
                         delete=ids(act.delete), cost=act.cost)
            for act in task.model.actions
        )
        return GroundedTask(
            model=GroundedModel(fact_names=fact_names, actions=actions),
            init=ids(task.init),
            goal=ids(task.goal),
        )

    return remap(a), remap(b)
