"""Benchmark harness: run explanation methods over a suite and tabulate.

A suite entry names a domain/problem pair plus a human model, given either
as a second domain file over the same objects or as a removal list of
feature names to delete from the robot model.  Each (entry, method) run is
timed, re-verified by replay, and optionally cross-checked against the
brute-force oracles.
"""

from __future__ import annotations

import csv
import io
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ExplanError, GuardExceeded, UnknownAction
from .grounding import GroundedTask, align_universes, ground
from .model import FeatureSet, GroundedModel, parse_feature_name, remove_features
from .oracle import min_complete_subsets, robot_plan_is_optimal
from .pddl import parse_domain, parse_problem
from .planner import Plan
from .reconcile import (
    VARIANT_MCER,
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

METHODS = ("mce", "mce-r", "oeg-pp", "oeg-na", "oeg-ap")

TABLE_COLUMNS = ("problem", "method", "total_features", "num_parts",
                 "avg_part_size", "distance", "time_s", "verified")


@dataclass(frozen=True)
class SuiteEntry:
    problem_id: str
    domain: Path
    problem: Path
    human_domain: Path | None = None
    remove_features: Path | None = None

    def __post_init__(self):
        if (self.human_domain is None) == (self.remove_features is None):
            raise ValueError(
                f"entry {self.problem_id!r} needs exactly one of "
                "human_domain or remove_features")


@dataclass(frozen=True)
class SuiteConfig:
    entries: tuple[SuiteEntry, ...]
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    time_limit_s: float = 60.0
    oracle_checks: bool = False

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")

    @classmethod
    def from_json(cls, path: str | Path) -> "SuiteConfig":
        path = Path(path)
        doc = json.loads(path.read_text())
        base = path.parent

        def resolve(p: str | None) -> Path | None:
            return None if p is None else (base / p)

        entries = tuple(
            SuiteEntry(
                problem_id=e["id"],
                domain=resolve(e["domain"]),
                problem=resolve(e["problem"]),
                human_domain=resolve(e.get("human_domain")),
                remove_features=resolve(e.get("remove_features")),
            )
            for e in doc["entries"]
        )
        return cls(
            entries=entries,
            methods=tuple(doc.get("methods", METHODS)),
            seed=int(doc.get("seed", 0)),
            time_limit_s=float(doc.get("time_limit_s", 60.0)),
            oracle_checks=bool(doc.get("oracle_checks", False)),
        )


@dataclass
class BenchRecord:
    problem_id: str
    method: str
    total_features: int | None = None
    num_parts: int | None = None
    avg_part_size: float | None = None
    distance: float | None = None
    time_s: float | None = None
    verified: bool | None = None
    oracle_verified: bool | None = None
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "problem": self.problem_id,
            "method": self.method,
            "total_features": self.total_features,
            "num_parts": self.num_parts,
            "avg_part_size": self.avg_part_size,
            "distance": self.distance,
            "time_s": self.time_s,
            "verified": self.verified,
            "oracle_verified": self.oracle_verified,
            "error": self.error,
        }


# -- problem loading ------------------------------------------------------------


def load_task(domain_path: str | Path, problem_path: str | Path) -> GroundedTask:
    domain = parse_domain(Path(domain_path).read_text())
    problem = parse_problem(Path(problem_path).read_text())
    return ground(domain, problem)


def load_models(
    domain_path: str | Path,
    problem_path: str | Path,
    human_domain_path: str | Path | None,
    removal_list_path: str | Path | None,
) -> tuple[GroundedTask, GroundedModel]:
    """Ground the robot task and build the human model over its universe.

    The human model comes either from a second domain file (grounded over
    the same problem, then re-indexed onto the shared fact universe) or
    from a removal list: one canonical feature name per line, stripped from
    the robot model.  Blank lines and lines whose first non-blank character
    is ``#`` are skipped.
    """
    domain = parse_domain(Path(domain_path).read_text())
    problem = parse_problem(Path(problem_path).read_text())
    robot_task = ground(domain, problem)
    if human_domain_path is not None:
        human_domain = parse_domain(Path(human_domain_path).read_text())
        human_task = ground(human_domain, problem)
        robot_task, human_task = align_universes(robot_task, human_task)
        human_model = human_task.model
    elif removal_list_path is not None:
        lines = [ln.strip() for ln in Path(removal_list_path).read_text().splitlines()]
        names = [ln for ln in lines if ln and not ln.startswith("#")]
        removals = FeatureSet(
            parse_feature_name(n, robot_task.model) for n in names)
        human_model = remove_features(robot_task.model, removals)
    else:
        raise ValueError("supply a human domain file or a removal list")
    return robot_task, human_model


def load_problem(
    domain_path: str | Path,
    problem_path: str | Path,
    human_domain_path: str | Path | None = None,
    removal_list_path: str | Path | None = None,
    robot_plan_names: list[str] | None = None,
) -> ReconciliationProblem:
    """Build a reconciliation problem from files (see ``load_models``)."""
    robot_task, human_model = load_models(
        domain_path, problem_path, human_domain_path, removal_list_path)
    robot_plan = None
    if robot_plan_names is not None:
        ids = tuple(robot_task.model.action_ids.get(n) for n in robot_plan_names)
        if None in ids:
            bad = robot_plan_names[ids.index(None)]
            raise UnknownAction(f"plan action {bad!r} is not a ground action")
        cost = sum(robot_task.model.actions[a].cost for a in ids)
        robot_plan = Plan(actions=ids, cost=cost)
    return ReconciliationProblem.build(
        robot_model=robot_task.model,
        human_model=human_model,
        init=robot_task.init,
        goal=robot_task.goal,
        robot_plan=robot_plan,
    )


# -- running ----------------------------------------------------------------------


def run_method(problem: ReconciliationProblem, method: str,
               seed: int = 0) -> OnlineExplanation:
    """Run one explanation method, normalized to an online explanation.

    A plain minimum complete set is wrapped as a single part before the
    first step so every method replays through the same verifier.
    """
    if method == "mce":
        features = mce(problem)
        parts = (SubExplanation(features=features, step=1),) if features else ()
        return OnlineExplanation(variant=VARIANT_MCER, parts=parts)
    if method == "mce-r":
        return mce_random(problem, seed=seed)
    if method == "oeg-pp":
        return oeg_pp(problem)
    if method == "oeg-na":
        return oeg_na(problem)
    if method == "oeg-ap":
        return oeg_ap(problem)
    raise ValueError(f"unknown method {method!r}")


def _oracle_check(problem: ReconciliationProblem, method: str,
                  explanation: OnlineExplanation) -> bool | None:
    """Cross-check a result against the brute-force oracle's optimal costs.

    ``mce`` and ``mce-r`` must give a minimum complete subset; ``oeg-ap``'s
    features must make the robot plan start an optimal plan of the human
    model, and every other method's must make it an optimal plan.  None
    when the oracle's guard refuses a diff wider than 20 features.
    """
    try:
        if method in ("mce", "mce-r"):
            return explanation.features in min_complete_subsets(problem)
        return robot_plan_is_optimal(problem, explanation.features,
                                     as_prefix=method == "oeg-ap")
    except GuardExceeded:
        return None


def run_entry(entry: SuiteEntry, method: str, seed: int,
              oracle_checks: bool, time_limit_s: float) -> BenchRecord:
    record = BenchRecord(problem_id=entry.problem_id, method=method)
    try:
        problem = load_problem(
            entry.domain, entry.problem,
            human_domain_path=entry.human_domain,
            removal_list_path=entry.remove_features,
        )
    except (ExplanError, OSError) as exc:  # an unreadable entry file too
        record.error = str(exc)
        return record

    outcome: list = []

    def work() -> None:
        try:
            explanation = run_method(problem, method, seed=seed)
            outcome.append((explanation, verify_online(problem, explanation)))
        except BaseException as exc:  # handed to the caller below
            outcome.append(exc)

    # a daemon thread: an op that outlives its limit runs on to its end but
    # never holds the interpreter open at exit
    start = time.perf_counter()
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(time_limit_s)
    record.time_s = time.perf_counter() - start
    if not outcome:
        record.error = f"timeout after {time_limit_s:g}s"
        return record
    if isinstance(outcome[0], ExplanError):
        record.error = str(outcome[0])
        return record
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    explanation, report = outcome[0]

    record.total_features = explanation.total_features
    record.num_parts = explanation.num_parts
    record.avg_part_size = explanation.avg_part_size
    record.distance = report.distance
    record.verified = report.verified
    if oracle_checks:
        record.oracle_verified = _oracle_check(problem, method, explanation)
    return record


def run_suite(config: SuiteConfig) -> list[BenchRecord]:
    """One record per (entry, method); per-run errors never abort the suite."""
    records = []
    for entry in config.entries:
        for method in config.methods:
            records.append(run_entry(
                entry, method, seed=config.seed,
                oracle_checks=config.oracle_checks,
                time_limit_s=config.time_limit_s,
            ))
    records.sort(key=lambda r: (r.problem_id, r.method))
    return records


# -- tabulation ---------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _row(record: BenchRecord) -> list[str]:
    return [
        record.problem_id,
        record.method,
        _cell(record.total_features),
        _cell(record.num_parts),
        _cell(record.avg_part_size),
        _cell(record.distance),
        "n/a" if record.time_s is None else f"{record.time_s:.3f}",
        _cell(record.verified),
    ]


def emit_table(records: list[BenchRecord], format: str = "csv") -> str:
    """Render records as csv, json, or markdown; rows sorted by (problem, method)."""
    ordered = sorted(records, key=lambda r: (r.problem_id, r.method))
    if format == "json":
        return json.dumps([r.to_json() for r in ordered], indent=2, sort_keys=True) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for record in ordered:
            writer.writerow(_row(record))
        return buf.getvalue()
    if format == "markdown":
        lines = [
            "| " + " | ".join(TABLE_COLUMNS) + " |",
            "|" + "|".join("---" for _ in TABLE_COLUMNS) + "|",
        ]
        for record in ordered:
            lines.append("| " + " | ".join(_row(record)) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {format!r}")
