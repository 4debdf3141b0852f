"""Command-line entry point.

Subcommands: plan, diff, explain, verify, bench.  Exit codes: 0 success,
2 parse/config error, 3 invalid reconciliation input, 4 search failure or
a failed trace verification.  ``bench`` exits 0 once its config loads and
reports each failed run in the table and as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    SuiteConfig,
    emit_table,
    load_models,
    load_problem,
    load_task,
    run_method,
    run_suite,
)
from .errors import (
    ExplanError,
    ExtraFeatures,
    GuardExceeded,
    InconsistentTask,
    ModelError,
    NonCanonicalPlan,
    NonOptimalPlan,
    PddlError,
    SearchExhausted,
)
from .model import FeatureSet, diff, parse_feature_name
from .reconcile import (
    OnlineExplanation,
    ReconciliationProblem,
    SubExplanation,
    oeg_pp,
    verify_online,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RECONCILE = 3
EXIT_SEARCH = 4


def _write_out(payload: dict | list, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_pair(args) -> ReconciliationProblem:
    plan_names = None
    if getattr(args, "plan_file", None):
        doc = json.loads(Path(args.plan_file).read_text())
        plan_names = list(doc["actions"])
    return load_problem(
        args.domain, args.problem,
        human_domain_path=args.human_domain,
        removal_list_path=args.remove_features,
        robot_plan_names=plan_names,
    )


def _cmd_plan(args) -> int:
    task = load_task(args.domain, args.problem)
    from .planner import plan_optimal

    plan = plan_optimal(task.model, task.init, task.goal)
    if plan is None:
        _write_out({"actions": None, "cost": None}, args.out)
    else:
        _write_out({"actions": plan.names(task.model), "cost": plan.cost}, args.out)
    return EXIT_OK


def _cmd_diff(args) -> int:
    robot, human_model = load_models(args.domain, args.problem,
                                     args.human_domain, args.remove_features)
    _write_out(diff(robot.model, human_model).to_json(), args.out)
    return EXIT_OK


def _cmd_explain(args) -> int:
    if args.plan_file and args.method != "oeg-ap":
        sys.stderr.write("error: --plan-file is only meaningful for --method oeg-ap\n")
        return EXIT_INPUT
    problem = _load_pair(args)
    if args.method == "oeg-pp" and args.exact:
        explanation = oeg_pp(problem, mode="exact")
    else:
        explanation = run_method(problem, args.method, seed=args.seed)
    report = verify_online(problem, explanation)
    doc = explanation.to_json(final_distance=report.distance)
    if args.method == "mce":
        doc["variant"] = "mce"
    doc["verified"] = report.verified
    _write_out(doc, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    problem = _load_pair(args)
    doc = json.loads(Path(args.trace).read_text())
    variant = doc["variant"]
    if variant == "mce":
        variant = "mce-r"  # an offline explanation replays as one scheduled part
    parts = tuple(
        SubExplanation(
            features=FeatureSet(
                parse_feature_name(n, problem.robot_model)
                for n in part["features"]),
            step=int(part["step"]),
        )
        for part in doc["parts"]
    )
    explanation = OnlineExplanation(variant=variant, parts=parts)
    report = verify_online(problem, explanation)
    _write_out(report.to_json(), args.out)
    return EXIT_OK if report.verified else EXIT_SEARCH


def _cmd_bench(args) -> int:
    config = SuiteConfig.from_json(args.config)
    records = run_suite(config)
    table = emit_table(records, format=args.format)
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
    failed = [r for r in records if r.error]
    for r in failed:
        sys.stderr.write(f"{r.problem_id}/{r.method}: {r.error}\n")
    return EXIT_OK


def _add_pair_options(sub):
    sub.add_argument("--domain", required=True, help="robot domain file")
    sub.add_argument("--problem", required=True, help="problem file")
    human = sub.add_mutually_exclusive_group(required=True)
    human.add_argument("--human-domain", help="human domain file over the same problem")
    human.add_argument("--remove-features",
                       help="file with one feature name per line to drop from the robot model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explan",
        description="cost-optimal planning and model-reconciliation explanations",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_plan = subs.add_parser("plan", help="run the optimal planner")
    p_plan.add_argument("--domain", required=True)
    p_plan.add_argument("--problem", required=True)
    p_plan.add_argument("--out")
    p_plan.set_defaults(fn=_cmd_plan)

    p_diff = subs.add_parser("diff", help="emit the model feature diff as JSON")
    _add_pair_options(p_diff)
    p_diff.add_argument("--out")
    p_diff.set_defaults(fn=_cmd_diff)

    p_explain = subs.add_parser("explain", help="generate one explanation")
    _add_pair_options(p_explain)
    p_explain.add_argument("--method", required=True,
                           choices=["mce", "mce-r", "oeg-pp", "oeg-na", "oeg-ap"])
    p_explain.add_argument("--exact", action="store_true",
                           help="exact prefix-preserving search (small diffs only)")
    p_explain.add_argument("--seed", type=int, default=0)
    p_explain.add_argument("--plan-file",
                           help="JSON plan to explain (any-prefix method only)")
    p_explain.add_argument("--out")
    p_explain.set_defaults(fn=_cmd_explain)

    p_verify = subs.add_parser("verify", help="replay and check a trace file")
    _add_pair_options(p_verify)
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=_cmd_verify)

    p_bench = subs.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--config", required=True, help="suite config JSON")
    p_bench.add_argument("--format", default="csv",
                         choices=["csv", "json", "markdown"])
    p_bench.add_argument("--out")
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ExtraFeatures, NonOptimalPlan, NonCanonicalPlan, InconsistentTask,
            ModelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RECONCILE
    except (SearchExhausted, GuardExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SEARCH
    except (PddlError, ExplanError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main() -> None:  # console entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
