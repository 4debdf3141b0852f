"""Parser and printer for a STRIPS-level PDDL subset.

Supported: positive conjunctive preconditions, add/delete effects, :typing,
integer action costs via ``(increase (total-cost) n)``.  Everything else is
rejected loudly so that downstream feature diffs stay trustworthy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    ArityMismatch,
    PddlSyntaxError,
    UndeclaredSymbol,
    UnsupportedFeature,
)

Atom = tuple[str, ...]  # (predicate, arg, ...)

SUPPORTED_REQUIREMENTS = frozenset({":strips", ":typing", ":action-costs"})

# Constructs that mark formulas outside the subset.
_REJECTED_HEADS = frozenset({
    "or", "not", "imply", "when", "forall", "exists", "oneof",
    "preference", "assign", "decrease", "scale-up", "scale-down", "=",
})


# -- tokenizer -----------------------------------------------------------------

# per line: a comment to its end, a token, or any other non-blank character
_TOKEN_RE = re.compile(r"(;.*)|([()]|[a-zA-Z0-9_\-?:=]+)|([^ \t\r])")


class _Token(NamedTuple):
    value: str
    line: int


def _tokenize(text: str) -> list[_Token]:
    """Split PDDL text into parens and identifiers; ``;`` starts a comment."""
    tokens: list[_Token] = []
    for line, row in enumerate(text.split("\n"), 1):
        for _, value, bad in _TOKEN_RE.findall(row):
            if bad:
                raise PddlSyntaxError("unexpected character", line, bad)
            if value:
                tokens.append(_Token(value.lower(), line))
    return tokens


# -- ASTs ----------------------------------------------------------------------

@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]  # (?var, type)
    pre: tuple[Atom, ...]
    add: tuple[Atom, ...]
    delete: tuple[Atom, ...]
    cost: int = 1


@dataclass(frozen=True)
class DomainAST:
    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, str], ...]  # (type, parent)
    predicates: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    schemas: tuple[ActionSchema, ...]

    def predicate_arities(self) -> dict[str, int]:
        return {name: len(params) for name, params in self.predicates}


@dataclass(frozen=True)
class ProblemAST:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (name, type)
    init: tuple[Atom, ...]
    goal: tuple[Atom, ...]


# -- parser --------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos].value if self.pos < len(self.tokens) else None

    def _line(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos].line
        return self.tokens[-1].line if self.tokens else 1

    def _next(self) -> _Token:
        if self.pos >= len(self.tokens):
            raise PddlSyntaxError("unexpected end of input", self._line())
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, value: str) -> _Token:
        tok = self._next()
        if tok.value != value:
            raise PddlSyntaxError(f"expected {value!r}", tok.line, tok.value)
        return tok

    def _name(self) -> str:
        tok = self._next()
        if tok.value in ("(", ")"):
            raise PddlSyntaxError("expected identifier", tok.line, tok.value)
        return tok.value

    def _skip_balanced(self):
        depth = 1
        while depth > 0:
            tok = self._next()
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth -= 1

    # typed list:  a b - t1 c - t2 d   (untyped entries default to "object")
    def _typed_list(self) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        pending: list[str] = []
        while self._peek() != ")":
            tok = self._next()
            if tok.value == "(":
                raise UnsupportedFeature("(either ...) types", tok.line)
            if tok.value == "-":
                typ_tok = self._next()
                if typ_tok.value == "(":
                    raise UnsupportedFeature("(either ...) types", typ_tok.line)
                out.extend((name, typ_tok.value) for name in pending)
                pending = []
            else:
                pending.append(tok.value)
        out.extend((name, "object") for name in pending)
        return out

    def _atom(self, where: str) -> Atom:
        line = self._line()
        self._expect("(")
        parts: list[str] = []
        while self._peek() != ")":
            tok = self._next()
            if tok.value == "(":
                raise UnsupportedFeature(f"nested term in {where}", tok.line)
            parts.append(tok.value)
        self._expect(")")
        if not parts:
            raise PddlSyntaxError(f"empty atom in {where}", line)
        if parts[0] in _REJECTED_HEADS:
            raise UnsupportedFeature(f"({parts[0]} ...) in {where}", line)
        return tuple(parts)

    # conjunction of positive atoms: (and a1 a2 ...) | single atom | ()
    def _conjunction(self, where: str) -> list[Atom]:
        self._expect("(")
        if self._peek() == ")":
            self._next()
            return []
        head = self._peek()
        if head == "and":
            self._next()
            atoms: list[Atom] = []
            while self._peek() != ")":
                atoms.append(self._atom(where))
            self._expect(")")
            return atoms
        if head in _REJECTED_HEADS:
            line = self._line()
            raise UnsupportedFeature(f"({head} ...) in {where}", line)
        # single bare atom: re-parse with the opening paren already consumed
        self.pos -= 1
        return [self._atom(where)]

    # -- domain ------------------------------------------------------------

    def parse_domain(self) -> DomainAST:
        self._expect("(")
        self._expect("define")
        self._expect("(")
        self._expect("domain")
        name = self._name()
        self._expect(")")

        requirements: list[str] = []
        types: list[tuple[str, str]] = []
        predicates: list[tuple[str, tuple[tuple[str, str], ...]]] = []
        schemas: list[ActionSchema] = []

        while self._peek() == "(":
            self._next()
            section = self._next()
            if section.value == ":requirements":
                while self._peek() != ")":
                    req = self._next().value
                    if req not in SUPPORTED_REQUIREMENTS:
                        raise UnsupportedFeature(req, section.line)
                    requirements.append(req)
                self._expect(")")
            elif section.value == ":types":
                for typ, parent in self._typed_list():
                    types.append((typ, parent))
                self._expect(")")
            elif section.value == ":predicates":
                while self._peek() == "(":
                    self._expect("(")
                    pred = self._name()
                    params = tuple(self._typed_list())
                    self._expect(")")
                    predicates.append((pred, params))
                self._expect(")")
            elif section.value == ":functions":
                # only (total-cost) may be declared, as the cost fluent
                while self._peek() != ")":
                    tok = self._next()
                    if tok.value not in ("(", ")", "-", "number", "total-cost"):
                        raise UnsupportedFeature(f"function {tok.value}", tok.line)
                    if tok.value == "(":
                        fn = self._next()
                        if fn.value != "total-cost":
                            raise UnsupportedFeature(f"function {fn.value}", fn.line)
                        self._expect(")")
                self._expect(")")
            elif section.value == ":action":
                schemas.append(self._action())
                self._expect(")")
            elif section.value in (":constants",):
                raise UnsupportedFeature(":constants", section.line)
            else:
                raise UnsupportedFeature(section.value, section.line)
        self._expect(")")
        ast = DomainAST(
            name=name,
            requirements=tuple(requirements),
            types=tuple(types),
            predicates=tuple(predicates),
            schemas=tuple(schemas),
        )
        _validate_domain(ast)
        return ast

    def _action(self) -> ActionSchema:
        name = self._name()
        params: tuple[tuple[str, str], ...] = ()
        pre: list[Atom] = []
        add: list[Atom] = []
        delete: list[Atom] = []
        cost: int | None = None
        while self._peek() != ")":
            key = self._next()
            if key.value == ":parameters":
                self._expect("(")
                params = tuple(self._typed_list())
                self._expect(")")
            elif key.value == ":precondition":
                pre = self._conjunction("precondition")
            elif key.value == ":effect":
                add, delete, cost = self._effect()
            else:
                raise UnsupportedFeature(f"action section {key.value}", key.line)
        for var, _ in params:
            if not var.startswith("?"):
                raise PddlSyntaxError(f"parameter {var!r} must start with '?'")
        return ActionSchema(
            name=name, params=params, pre=tuple(pre),
            add=tuple(add), delete=tuple(delete),
            cost=1 if cost is None else cost,
        )

    def _effect(self) -> tuple[list[Atom], list[Atom], int | None]:
        add: list[Atom] = []
        delete: list[Atom] = []
        cost: int | None = None
        self._expect("(")
        if self._peek() == ")":
            self._next()
            return add, delete, cost
        items: list[None] = []
        if self._peek() == "and":
            self._next()
            while self._peek() != ")":
                self._effect_item(add, delete, items)
                cost = self._maybe_take_cost(items, cost)
            self._expect(")")
        else:
            self.pos -= 1
            self._effect_item(add, delete, items)
            cost = self._maybe_take_cost(items, cost)
        return add, delete, cost

    def _maybe_take_cost(self, items: list, pending: int | None) -> int | None:
        if not items:
            return pending
        val = items.pop()
        if pending is not None:
            raise PddlSyntaxError("duplicate (increase (total-cost) ...) effect")
        return val

    def _effect_item(self, add: list[Atom], delete: list[Atom], costs: list):
        line = self._line()
        self._expect("(")
        head = self._peek()
        if head == "not":
            self._next()
            delete.append(self._atom("delete effect"))
            self._expect(")")
        elif head == "increase":
            self._next()
            self._expect("(")
            fluent = self._next()
            if fluent.value != "total-cost":
                raise UnsupportedFeature(f"(increase ({fluent.value}) ...)", line)
            self._expect(")")
            amount = self._next()
            if not amount.value.isdigit():
                raise UnsupportedFeature("non-integer action cost", amount.line)
            self._expect(")")
            costs.append(int(amount.value))
        elif head in _REJECTED_HEADS or head == "and":
            raise UnsupportedFeature(f"({head} ...) in effect", line)
        else:
            self.pos -= 1
            add.append(self._atom("add effect"))

    # -- problem -----------------------------------------------------------

    def parse_problem(self) -> ProblemAST:
        self._expect("(")
        self._expect("define")
        self._expect("(")
        self._expect("problem")
        name = self._name()
        self._expect(")")

        domain_name = ""
        objects: tuple[tuple[str, str], ...] = ()
        init: list[Atom] = []
        goal: list[Atom] = []

        while self._peek() == "(":
            self._next()
            section = self._next()
            if section.value == ":domain":
                domain_name = self._name()
                self._expect(")")
            elif section.value == ":objects":
                objects = tuple(self._typed_list())
                self._expect(")")
            elif section.value == ":init":
                init = self._init_atoms()
                self._expect(")")
            elif section.value == ":goal":
                goal = self._conjunction("goal")
                self._expect(")")
            elif section.value == ":metric":
                # (:metric minimize (total-cost)) matches the planner semantics
                words: list[str] = []
                depth = 1
                while depth > 0:
                    tok = self._next()
                    if tok.value == "(":
                        depth += 1
                    elif tok.value == ")":
                        depth -= 1
                    else:
                        words.append(tok.value)
                if words != ["minimize", "total-cost"]:
                    raise UnsupportedFeature(f"metric {' '.join(words)}", section.line)
                self.pos -= 1
                self._expect(")")
            else:
                raise UnsupportedFeature(section.value, section.line)
        self._expect(")")
        if not domain_name:
            raise PddlSyntaxError("problem has no (:domain ...) declaration")
        ast = ProblemAST(
            name=name, domain_name=domain_name, objects=objects,
            init=tuple(init), goal=tuple(goal),
        )
        _validate_problem(ast)
        return ast

    def _init_atoms(self) -> list[Atom]:
        atoms: list[Atom] = []
        while self._peek() == "(":
            line = self._line()
            self._expect("(")
            head = self._peek()
            if head == "=":
                # only the conventional (= (total-cost) 0) is tolerated
                self._next()
                self._expect("(")
                fluent = self._next()
                self._expect(")")
                amount = self._next()
                self._expect(")")
                if fluent.value != "total-cost" or amount.value != "0":
                    raise UnsupportedFeature(
                        f"numeric init (= ({fluent.value}) {amount.value})", line)
                continue
            if head in _REJECTED_HEADS:
                raise UnsupportedFeature(f"({head} ...) in init", line)
            parts: list[str] = []
            while self._peek() != ")":
                tok = self._next()
                if tok.value == "(":
                    raise UnsupportedFeature("nested term in init", tok.line)
                parts.append(tok.value)
            self._expect(")")
            atoms.append(tuple(parts))
        return atoms


# -- validation ----------------------------------------------------------------

def _validate_domain(ast: DomainAST) -> None:
    declared_types = {"object"} | {t for t, _ in ast.types}
    for typ, parent in ast.types:
        if parent not in declared_types:
            raise UndeclaredSymbol(f"type {parent!r} (parent of {typ!r}) is not declared")
    arities = {}
    for pred, params in ast.predicates:
        if pred in arities:
            raise UndeclaredSymbol(f"predicate {pred!r} declared twice")
        arities[pred] = len(params)
        for _, typ in params:
            if typ not in declared_types:
                raise UndeclaredSymbol(f"type {typ!r} in predicate {pred!r} is not declared")
    seen_actions = set()
    for schema in ast.schemas:
        if schema.name in seen_actions:
            raise UndeclaredSymbol(f"action {schema.name!r} declared twice")
        seen_actions.add(schema.name)
        if schema.cost < 0:
            raise PddlSyntaxError(f"action {schema.name!r} has a negative cost")
        param_names = [v for v, _ in schema.params]
        if len(set(param_names)) != len(param_names):
            raise PddlSyntaxError(f"action {schema.name!r} repeats a parameter name")
        for _, typ in schema.params:
            if typ not in declared_types:
                raise UndeclaredSymbol(
                    f"type {typ!r} in action {schema.name!r} is not declared")
        params = set(param_names)
        for atom in schema.pre + schema.add + schema.delete:
            pred, args = atom[0], atom[1:]
            if pred not in arities:
                raise UndeclaredSymbol(
                    f"predicate {pred!r} in action {schema.name!r} is not declared")
            if len(args) != arities[pred]:
                raise ArityMismatch(
                    f"predicate {pred!r} takes {arities[pred]} argument(s), "
                    f"got {len(args)} in action {schema.name!r}")
            for arg in args:
                if not arg.startswith("?"):
                    raise UnsupportedFeature(
                        f"constant {arg!r} in action {schema.name!r} "
                        "(only schema parameters may appear)")
                if arg not in params:
                    raise UndeclaredSymbol(
                        f"variable {arg!r} in action {schema.name!r} is not a parameter")


def _validate_problem(ast: ProblemAST) -> None:
    names = [n for n, _ in ast.objects]
    if len(set(names)) != len(names):
        raise UndeclaredSymbol("an object is declared twice")
    declared = set(names)
    for where, atoms in (("init", ast.init), ("goal", ast.goal)):
        for atom in atoms:
            for arg in atom[1:]:
                if arg.startswith("?"):
                    raise UnsupportedFeature(f"variable {arg!r} in {where}")
                if arg not in declared:
                    raise UndeclaredSymbol(f"object {arg!r} in {where} is not declared")


# -- public API ------------------------------------------------------------------

def parse_domain(text: str) -> DomainAST:
    """Parse domain text into a :class:`DomainAST`; rejects non-subset constructs."""
    return _Parser(text).parse_domain()


def parse_problem(text: str) -> ProblemAST:
    """Parse problem text into a :class:`ProblemAST`."""
    return _Parser(text).parse_problem()


# -- printer ---------------------------------------------------------------------

def _fmt_typed(pairs: tuple[tuple[str, str], ...]) -> str:
    return " ".join(f"{name} - {typ}" for name, typ in pairs)


def _fmt_atom(atom: Atom) -> str:
    return "(" + " ".join(atom) + ")"


def _fmt_conj(atoms: tuple[Atom, ...]) -> str:
    if not atoms:
        return "(and)"
    return "(and " + " ".join(_fmt_atom(a) for a in atoms) + ")"


def domain_to_pddl(ast: DomainAST) -> str:
    """Render a DomainAST back to PDDL text (parse round-trips structurally)."""
    lines = [f"(define (domain {ast.name})"]
    if ast.requirements:
        lines.append("  (:requirements " + " ".join(ast.requirements) + ")")
    if ast.types:
        lines.append("  (:types " + _fmt_typed(ast.types) + ")")
    if ast.predicates:
        preds = " ".join(
            "(" + name + (" " + _fmt_typed(params) if params else "") + ")"
            for name, params in ast.predicates
        )
        lines.append("  (:predicates " + preds + ")")
    has_costs = ":action-costs" in ast.requirements
    if has_costs:
        lines.append("  (:functions (total-cost))")
    for schema in ast.schemas:
        lines.append(f"  (:action {schema.name}")
        lines.append("    :parameters (" + _fmt_typed(schema.params) + ")")
        lines.append("    :precondition " + _fmt_conj(schema.pre))
        effects = [_fmt_atom(a) for a in schema.add]
        effects += ["(not " + _fmt_atom(a) + ")" for a in schema.delete]
        if has_costs:
            effects.append(f"(increase (total-cost) {schema.cost})")
        lines.append("    :effect (and " + " ".join(effects) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_to_pddl(ast: ProblemAST) -> str:
    """Render a ProblemAST back to PDDL text."""
    lines = [
        f"(define (problem {ast.name})",
        f"  (:domain {ast.domain_name})",
    ]
    if ast.objects:
        lines.append("  (:objects " + _fmt_typed(ast.objects) + ")")
    lines.append("  (:init " + " ".join(_fmt_atom(a) for a in ast.init) + ")")
    lines.append("  (:goal " + _fmt_conj(ast.goal) + ")")
    lines.append(")")
    return "\n".join(lines) + "\n"
