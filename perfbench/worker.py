"""One measured process: set up, run one pass over the workload's ops in
order, report.

Started by ``run.py`` in a fresh interpreter for every measurement, and
it runs each op once, because the program's global ``plan_optimal`` cache
would turn in-process repeats into cache hits that no real caller sees.
Ops run one after another on this thread (the bench harness adds its own
worker thread per ``run_entry``); nothing runs in parallel.

    python3 perfbench/worker.py --workload W --out FILE [--trace SPANS]
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # before ``import explan``; interpreter start excluded

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FIXTURES, INPUTS, METHODS, WORKLOADS, checkout_root  # noqa: E402


def import_program():
    """Import the checkout's own ``explan``; refuse any other copy."""
    src = checkout_root() / "src"
    sys.path.insert(0, str(src))
    import explan
    import explan.bench
    import explan.reconcile

    if Path(explan.__file__).resolve().parent != (src / "explan").resolve():
        raise RuntimeError(f"imported explan from {explan.__file__}, not from {src}")
    return explan


def plan_ops(program, workload: str) -> list[dict]:
    """Load every problem of the workload; return the ops in run order.

    The order is fixed: instances (or suite entries) as listed, each with
    the five methods in ``METHODS`` order.  It matters, because a method
    reuses earlier planner calls through the program's cache, and short ops
    run slower once a big instance has grown the heap.
    """
    bench = program.bench
    wl = WORKLOADS[workload]
    units = []
    for inst in wl.instances:
        problem = bench.load_problem(
            INPUTS / inst.domain, INPUTS / inst.problem_file,
            removal_list_path=INPUTS / inst.removals_file)
        units.append((inst.id, inst.seed, problem))
    for suite in wl.suites:
        config = bench.SuiteConfig.from_json(FIXTURES / suite)
        for entry in config.entries:
            bench.load_problem(entry.domain, entry.problem,
                               human_domain_path=entry.human_domain,
                               removal_list_path=entry.remove_features)
            units.append((entry.problem_id, config.seed, (entry, config)))
    return [{"key": f"{uid}/{m}", "method": m, "seed": useed, "target": target}
            for uid, useed, target in units for m in METHODS]


def run_op(program, op: dict) -> dict:
    """Run one op; the result holds what the correctness reference records."""
    bench = program.bench
    target, method, seed = op["target"], op["method"], op["seed"]
    try:
        if isinstance(target, tuple):  # a suite entry, through the bench harness
            entry, config = target
            record = bench.run_entry(entry, method, seed, oracle_checks=True,
                                     time_limit_s=config.time_limit_s)
            return {"result": {
                "total_features": record.total_features, "num_parts": record.num_parts,
                "avg_part_size": record.avg_part_size, "distance": record.distance,
                "verified": record.verified, "error": record.error},
                "oracle_verified": record.oracle_verified}
        explanation = bench.run_method(target, method, seed)
        report = program.reconcile.verify_online(target, explanation)
    except Exception as exc:  # any raise is a failed op, recorded and reported
        return {"result": {"error": f"{type(exc).__name__}: {exc}"}}
    return {"result": {
        "variant": explanation.variant,
        "parts": [[p.step, p.features.names()] for p in explanation.parts],
        "total_features": explanation.total_features,
        "distance": report.distance, "verified": report.verified}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path, help="write spans here and report per-layer metrics")
    args = ap.parse_args(argv)

    program = import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = plan_ops(program, args.workload)
    setup_s = time.perf_counter() - SETUP_START
    results = []
    start = time.perf_counter()
    for op in ops:
        begin = time.perf_counter()
        outcome = run_op(program, op)
        results.append({"key": op["key"], "method": op["method"],
                        "s": time.perf_counter() - begin, **outcome})
    elapsed = time.perf_counter() - start
    doc = {"setup_s": setup_s, "ops": results, "elapsed_s": elapsed,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)
        doc["layers"] = tracer.metrics()
    args.out.write_text(json.dumps(doc))
    if any("timeout" in (r["result"].get("error") or "") for r in results):
        # a fired time limit leaves the harness thread running; end the
        # process instead of waiting for it at interpreter exit
        sys.stdout.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
