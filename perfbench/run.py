"""The explan benchmark: one workload run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload stress-diff --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measurement is a fresh process
that runs one pass over the workload's ops, on the inputs committed under
``perfbench/inputs``; each op's result is compared with the reference
recorded in ``reference.json``.  The last line of standard output is the
JSON result.  ``--record`` rewrites the workload's reference instead of
checking it.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import KNOWN_FAILURES, METHODS, WORKLOADS, checkout_root  # noqa: E402

REFERENCE = HERE / "reference.json"
DEADLINE_S = 170.0   # a run must end within 180 s
MIN_PROCESSES = 3    # measured processes per run, at the least


class RunError(Exception):
    """The run cannot produce a result."""


def work_dir() -> Path:
    return checkout_root() / ".bench_build" / "perfbench"


def run_worker(workload: str, seed: int, deadline: float, *extra) -> dict:
    """One measured process, one pass.  The seed fixes its string hashing,
    and so the iteration order of every set and dict in the program: the
    same seed executes the same way, and the reference check shows that no
    result depends on that order."""
    out = work_dir() / f"worker-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--out", str(out), *map(str, extra)]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:  # the worker's stdout goes to stderr: ours ends with the result
        done = subprocess.run(cmd, stdout=sys.stderr, env=env,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise RunError("out of time running worker.py") from None
    if done.returncode != 0:
        raise RunError(f"worker.py exited with code {done.returncode}")
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def judge(ops: list[dict], reference: dict) -> list[dict]:
    """Annotate each op with why it failed; known failures are marked."""
    for op in ops:
        reasons = []
        result = op["result"]
        if result.get("error"):
            reasons.append("error: " + result["error"])
        if result.get("verified") is False:
            reasons.append("verified=false")
        if op.get("oracle_verified") is False:
            reasons.append("oracle_verified=false")
        if op["key"] not in reference:
            reasons.append("no reference result")
        elif reference[op["key"]] != result:
            reasons.append("differs from the reference")
        op["reasons"] = reasons
        op["known"] = bool(reasons) and reasons == [KNOWN_FAILURES.get(op["key"])]
    return ops


def measure(workload: str, seed: int, deadline: float, seconds: float,
            spans: Path | None = None) -> list[dict]:
    """Fresh one-pass processes until ``seconds`` of ops are timed, and at
    least ``MIN_PROCESSES`` of them.  With ``spans``, every other process is
    traced, starting with an untraced one."""
    docs: list[dict] = []
    while len(docs) < MIN_PROCESSES or sum(d["elapsed_s"] for d in docs) < seconds:
        traced = spans is not None and len(docs) % 2 == 1
        docs.append(run_worker(workload, seed, deadline, *(("--trace", spans) if traced else ())))
    return docs


def end_to_end(docs: list[dict], ops: list[dict]) -> dict[str, tuple[float, str]]:
    """Each metric per pass, as the median over the run's processes, except
    the throughput, which pools every op of the run."""
    ok = sum(1 for op in ops if not op["reasons"])
    metrics = {"explain_per_s": (ok / sum(d["elapsed_s"] for d in docs), "1/s")}
    for m in METHODS:
        metrics[f"{m}_s"] = (statistics.median(
            sum(op["s"] for op in d["ops"] if op["method"] == m) for d in docs), "s")
    metrics["setup_s"] = (statistics.median(d["setup_s"] for d in docs), "s")
    metrics["peak_rss_mb"] = (statistics.median(d["peak_rss_mb"] for d in docs), "MB")
    return metrics


def op_times(ops: list[dict]) -> str:
    """The median op time, the sample count, and the highest percentile with
    ten samples above it.  Printed only, with no bound: between two sets of
    ten runs of the same code, the median op of ``bundled`` (a 2-5 ms op)
    moved by 20-30%, as far as the largest bound allows."""
    n = len(ops)
    line = f"  {'op_s.p50':<42} {statistics.median(op['s'] for op in ops):12.4f} s  (n={n}"
    for p in (99, 95, 90):
        if n * (100 - p) >= 1000:
            cut = statistics.quantiles((op["s"] for op in ops), n=100)[p - 1]
            line += f", p{p} {cut:.4f} s"
            break
    return line + ")"


def per_layer(docs: list[dict]) -> dict[str, tuple[float, str]]:
    """Each layer metric of one pass, as the median over the traced processes."""
    traced = [d for d in docs if "layers" in d]
    metrics = {}
    for name in PER_LAYER:
        source = name.replace(".self.s", ".s")
        unit = "s" if name.endswith(".s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (statistics.median(d["layers"].get(source, 0.0) for d in traced), unit)
    metrics["trace.overhead"] = (
        statistics.median(d["elapsed_s"] for d in traced)
        / statistics.median(d["elapsed_s"] for d in docs if "layers" not in d), "ratio")
    return metrics


PER_LAYER = (
    "model.apply_features.s", "model.apply_features.calls", "model.apply_features.feats",
    "model.diff.s", "model.diff.calls", "model.remove_features.s",
    "planner.plan_optimal.s", "planner.plan_optimal.calls",
    "planner.plan_optimal.distinct", "planner.plan_optimal.repeat_ratio",
    "planner.exists_optimal_with_prefix.calls", "planner.compile_prefix.s",
    "planner.validate.s", "reconcile.search.s", "reconcile.verify_online.s",
    "pddl.parse.s", "grounding.ground.s", "bench.load_problem.s",
    "oracle.s", "oracle.calls", "bench.run_entry.self.s",
)


def record(workload: str, doc: dict) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[workload] = {op["key"]: op["result"] for op in doc["ops"]}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true",
                    help="rewrite this workload's reference results instead of checking")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (checkout_root() / "src" / "explan" / "__init__.py").is_file():
        raise RunError(f"no program to measure: {checkout_root() / 'src' / 'explan'} is missing")

    work_dir().mkdir(parents=True, exist_ok=True)
    if args.record:
        record(args.workload, run_worker(args.workload, args.seed, deadline))
        print(f"recorded the {args.workload} reference in {REFERENCE}")
        return 0

    spans = work_dir() / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    docs = measure(args.workload, args.seed, deadline, args.seconds, spans)
    reference = json.loads(REFERENCE.read_text())[args.workload]
    ops = judge([op for d in docs for op in d["ops"]], reference)
    metrics = per_layer(docs) if args.trace else end_to_end(docs, ops)
    failing = [op for op in ops if op["reasons"]]
    unexpected = [op for op in failing if not op["known"]]
    report = work_dir() / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), "metrics": metrics, "processes": docs},
                                 indent=1))

    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    print(f"  {len(ops)} ops in {len(docs)} one-pass processes, "
          f"order {' '.join(op['key'] for op in docs[0]['ops'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:12.4f} {unit}")
    if not args.trace:
        print(op_times(ops))
    print(f"  {'fail_ratio':<42} {len(failing) / len(ops):12.4f} ratio"
          f"  ({len(failing)} of {len(ops)} ops failed, {len(failing) - len(unexpected)} known)")
    tags = collections.Counter(
        (op["key"], "known: " + op["reasons"][0] if op["known"] else "; ".join(op["reasons"]))
        for op in failing)
    for (key, tag), times in tags.items():
        print(f"  FAILED {key} x{times}: {tag}")
    print(f"  report {report}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
