from __future__ import annotations

import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explan import fixture_path
from explan.errors import (
    ArityMismatch,
    GroundingError,
    PddlSyntaxError,
    TypeMismatch,
    UndeclaredSymbol,
    UnsupportedFeature,
)
from explan.grounding import ground
from explan.pddl import (
    _tokenize,
    domain_to_pddl,
    parse_domain,
    parse_problem,
    problem_to_pddl,
)

MINIMAL_DOMAIN = """
(define (domain mini)
  (:predicates (done))
  (:action finish
    :parameters ()
    :precondition (and)
    :effect (done)))
"""

TYPED_DOMAIN = """
(define (domain typed)
  (:requirements :strips :typing)
  (:types truck)
  (:predicates (moved ?t - truck))
  (:action move
    :parameters (?t - truck)
    :precondition (and)
    :effect (moved ?t)))
"""


def test_minimal_domain_defaults_unit_cost():
    ast = parse_domain(MINIMAL_DOMAIN)
    assert len(ast.schemas) == 1
    assert ast.schemas[0].cost == 1
    assert ast.schemas[0].params == ()


def test_adl_requirement_rejected():
    text = MINIMAL_DOMAIN.replace("(:predicates", "(:requirements :adl)\n  (:predicates")
    with pytest.raises(UnsupportedFeature) as err:
        parse_domain(text)
    assert ":adl" in str(err.value)


def test_rover_domain_has_nine_schemas():
    ast = parse_domain(fixture_path("rover-domain.pddl").read_text())
    assert len(ast.schemas) == 9
    assert {s.name for s in ast.schemas} == {
        "navigate", "sample_soil", "sample_rock", "drop", "calibrate",
        "take_image", "communicate_soil_data", "communicate_rock_data",
        "communicate_image_data",
    }


def test_barman_domain_has_twelve_schemas():
    ast = parse_domain(fixture_path("barman-domain.pddl").read_text())
    assert len(ast.schemas) == 12


@pytest.mark.parametrize("construct", [
    ":precondition (or (done) (done))",
    ":precondition (not (done))",
    ":precondition (forall (?x) (done))",
    ":effect (when (done) (done))",
])
def test_disjunctive_and_quantified_constructs_rejected(construct):
    text = MINIMAL_DOMAIN.replace(":precondition (and)", construct) \
        if construct.startswith(":precondition") \
        else MINIMAL_DOMAIN.replace(":effect (done)", construct)
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)


def test_undeclared_predicate_rejected():
    text = MINIMAL_DOMAIN.replace(":effect (done)", ":effect (finished)")
    with pytest.raises(UndeclaredSymbol):
        parse_domain(text)


def test_wrong_arity_rejected():
    text = MINIMAL_DOMAIN.replace(":precondition (and)", ":precondition (done ?x)")
    with pytest.raises((ArityMismatch, UndeclaredSymbol)):
        parse_domain(text)


def test_empty_init_single_goal_problem():
    ast = parse_problem("(define (problem p) (:domain mini) (:init) (:goal (done)))")
    assert ast.objects == ()
    assert ast.init == ()
    assert ast.goal == (("done",),)


def test_negated_goal_rejected():
    with pytest.raises(UnsupportedFeature):
        parse_problem(
            "(define (problem p) (:domain mini) (:init) (:goal (not (done))))")


def test_minirover_problem_counts():
    ast = parse_problem(fixture_path("minirover-problem.pddl").read_text())
    assert len(ast.objects) == 0
    assert len(ast.init) == 0
    assert len(ast.goal) == 1


def test_problem_requires_domain_declaration():
    with pytest.raises(PddlSyntaxError):
        parse_problem("(define (problem p) (:init) (:goal (done)))")


def test_syntax_error_carries_position():
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain("(define (domain bad)\n  (:action)")
    assert "line" in str(err.value)


# -- tokenizer -------------------------------------------------------------------

_REFERENCE_ID_RE = re.compile(r"[a-zA-Z0-9_\-?:=][a-zA-Z0-9_\-?:=]*")


def _reference_tokenize(text: str) -> list[tuple[str, int]]:
    """The per-character tokenizer the regex scan replaced, kept as the reference."""
    tokens = []
    i, n, line = 0, len(text), 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line))
            i += 1
        else:
            m = _REFERENCE_ID_RE.match(text, i)
            if not m:
                raise PddlSyntaxError("unexpected character", line, text[i])
            tokens.append((m.group(0).lower(), line))
            i = m.end()
    return tokens


def _tokens_or_error(tokenize, text: str):
    try:
        return [(value, line) for value, line in tokenize(text)]
    except PddlSyntaxError as exc:
        return ("error", exc.line, exc.token)


_LEGAL_PIECES = [
    "a", "Z", "9", "_", "-", "?", ":", "=", "(", ")", " ", "\t", "\n", "\r\n",
    ";", "; c (x) é", "?Var-1", ":Action", "(and", "))",
    "(define (domain D)\n", "  (:action Move :parameters (?x - t))\r\n",
]


@st.composite
def _pddl_text(draw) -> str:
    """Legal pieces with up to two illegal characters inserted anywhere."""
    pieces = draw(st.lists(st.sampled_from(_LEGAL_PIECES), max_size=60))
    for bad in draw(st.lists(st.sampled_from(["\f", '"', "é"]), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), bad)
    return "".join(pieces)


@given(_pddl_text())
@settings(max_examples=300, deadline=None)
@example("(a\n  b é)")
@example("; é\r\n(:A \f")
def test_tokenizer_matches_per_character_reference(text):
    assert _tokens_or_error(_tokenize, text) == \
        _tokens_or_error(_reference_tokenize, text)


def test_tokenizer_error_names_line_and_character():
    with pytest.raises(PddlSyntaxError) as err:
        _tokenize("(define ; é is fine in a comment\r\n  (domain \"d\"))")
    assert (err.value.line, err.value.token) == (2, '"')


# -- grounding -------------------------------------------------------------------


def test_parameterless_schema_grounds_to_one_action():
    dom = parse_domain(MINIMAL_DOMAIN)
    prob = parse_problem("(define (problem p) (:domain mini) (:init) (:goal (done)))")
    task = ground(dom, prob)
    assert task.action_names == ("finish",)


def test_schema_with_three_objects_grounds_to_three_actions():
    dom = parse_domain(TYPED_DOMAIN)
    prob = parse_problem(
        "(define (problem p) (:domain typed) (:objects t1 t2 t3 - truck)"
        " (:init) (:goal (moved t1)))")
    task = ground(dom, prob)
    assert task.action_names == ("move t1", "move t2", "move t3")


def test_minirover2_grounds_to_six_actions_six_facts():
    dom = parse_domain(fixture_path("minirover2-domain.pddl").read_text())
    prob = parse_problem(fixture_path("minirover2-problem.pddl").read_text())
    task = ground(dom, prob)
    assert len(task.action_names) == 6
    assert len(task.fact_names) == 6


def test_grounding_is_deterministic():
    dom = parse_domain(fixture_path("rover-domain.pddl").read_text())
    prob = parse_problem(fixture_path("rover-p1-problem.pddl").read_text())
    a, b = ground(dom, prob), ground(dom, prob)
    assert a.fact_names == b.fact_names
    assert a.action_names == b.action_names
    assert a.model == b.model


def test_grounding_substitution_soundness():
    dom = parse_domain(fixture_path("rover-domain.pddl").read_text())
    prob = parse_problem(fixture_path("rover-p1-problem.pddl").read_text())
    task = ground(dom, prob)
    schemas = {s.name: s for s in dom.schemas}
    for action in task.model.actions:
        head, *args = action.name.split(" ")
        schema = schemas[head]
        binding = dict(zip((v for v, _ in schema.params), args))

        def atoms(group):
            return {" ".join((a[0], *(binding[x] for x in a[1:]))) for a in group}

        assert {task.fact_names[i] for i in action.pre} == atoms(schema.pre)
        assert {task.fact_names[i] for i in action.add} == atoms(schema.add)
        # deletes may lose overlap with adds (delete-then-add semantics)
        assert {task.fact_names[i] for i in action.delete} == \
            atoms(schema.delete) - atoms(schema.add)


def _direct_grounding(dom, prob) -> dict[str, tuple[set, set, set]]:
    """Every ground action by name, substituted directly from its schema."""
    parent = dict(dom.types)

    def is_a(typ: str, want: str) -> bool:
        while typ != want and typ in parent:
            typ = parent[typ]
        return typ == want

    out = {}
    for schema in dom.schemas:
        domains = [sorted(o for o, t in prob.objects if is_a(t, typ))
                   for _, typ in schema.params]
        for combo in product(*domains):
            binding = dict(zip((v for v, _ in schema.params), combo))

            def atoms(group):
                return {" ".join((a[0], *(binding[x] for x in a[1:]))) for a in group}

            add = atoms(schema.add)
            out[" ".join((schema.name, *combo))] = (
                atoms(schema.pre), add, atoms(schema.delete) - add)
    return out


OVERLAP_DOMAIN = """
(define (domain overlap)
  (:requirements :strips :typing)
  (:types spot)
  (:predicates (at ?s - spot))
  (:action move
    :parameters (?from ?to - spot)
    :precondition (at ?from)
    :effect (and (not (at ?from)) (at ?to))))
"""

OVERLAP_PROBLEM = """
(define (problem hop) (:domain overlap)
  (:objects b a - spot) (:init (at a)) (:goal (at b)))
"""


def _fixture_pairs():
    files = {p.name: p.read_text() for p in sorted(fixture_path("").glob("*.pddl"))}
    domains = {n: parse_domain(t) for n, t in files.items() if "(problem" not in t}
    problems = {n: parse_problem(t) for n, t in files.items() if "(problem" in t}
    pairs = [pytest.param(d, p, id=f"{dn}+{pn}")
             for dn, d in domains.items() for pn, p in problems.items()
             if p.domain_name == d.name]
    assert len(pairs) == 9  # every fixture problem, human domains included
    return pairs + [pytest.param(parse_domain(OVERLAP_DOMAIN),
                                 parse_problem(OVERLAP_PROBLEM), id="overlap")]


@pytest.mark.parametrize("dom, prob", _fixture_pairs())
def test_grounding_matches_direct_substitution(dom, prob):
    task = ground(dom, prob)
    expected = _direct_grounding(dom, prob)
    assert task.action_names == tuple(sorted(expected))
    for action in task.model.actions:
        got = tuple({task.fact_names[i] for i in fids}
                    for fids in (action.pre, action.add, action.delete))
        assert got == expected[action.name]
    facts = {" ".join(a) for a in (*prob.init, *prob.goal)}
    for group in expected.values():
        facts.update(*group)
    assert task.fact_names == tuple(sorted(facts))


def test_type_mismatch_in_init_rejected():
    dom = parse_domain(TYPED_DOMAIN)
    prob = parse_problem(
        "(define (problem p) (:domain typed) (:objects t1 - truck b1 - object)"
        " (:init (moved b1)) (:goal (moved t1)))")
    with pytest.raises(TypeMismatch):
        ground(dom, prob)


def test_zero_cost_action_rejected_at_grounding():
    text = """
(define (domain zc)
  (:requirements :action-costs)
  (:predicates (done))
  (:functions (total-cost))
  (:action freebie
    :parameters ()
    :precondition (and)
    :effect (and (done) (increase (total-cost) 0))))
"""
    dom = parse_domain(text)
    prob = parse_problem("(define (problem p) (:domain zc) (:init) (:goal (done)))")
    with pytest.raises(GroundingError):
        ground(dom, prob)


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "minirover-domain.pddl", "minirover2-domain.pddl", "tieworld-domain.pddl",
    "reshuffle-domain.pddl", "rover-domain.pddl", "barman-domain.pddl",
])
def test_domain_print_parse_round_trip(name):
    ast = parse_domain(fixture_path(name).read_text())
    assert parse_domain(domain_to_pddl(ast)) == ast


@pytest.mark.parametrize("name", [
    "minirover-problem.pddl", "rover-p1-problem.pddl", "barman-p1-problem.pddl",
])
def test_problem_print_parse_round_trip(name):
    ast = parse_problem(fixture_path(name).read_text())
    assert parse_problem(problem_to_pddl(ast)) == ast
