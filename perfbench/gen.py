"""Seeded input generator for the stress workloads.

Removal lists follow one rule: take the non-cost features of the actions on
the robot's canonical plan, shuffle them by seed, and keep a feature only if
removing it on top of the features already kept changes the human's optimal
plan (an unsolvable human task counts as a change).  The larger Rover
problem is drawn from the seed as well.  The planner calls make generation
slow (about 10 s), so it is an offline tool: its output is committed under
``perfbench/inputs``, and the benchmark reads only those files.  So every
version of the program is measured on the same bytes, even one whose
feature representation would shuffle or name features differently.

    python3 perfbench/gen.py [--out DIR]     # default: perfbench/inputs
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FIXTURES, INPUTS, WORKLOADS, Instance, checkout_root  # noqa: E402


# size of the generated Rover problem: 158 facts, 625 ground actions and a
# 19-step plan; planning is about two thirds of its self time
WAYPOINTS, OBJECTIVES, SOIL_SAMPLES = 6, 3, 2


def rover_problem(seed: int) -> str:
    """A one-rover Rover problem: a seeded connected waypoint graph, soil
    samples to analyse and objectives to photograph, all reported to one
    lander."""
    rng = random.Random(seed)
    wps = [f"w{i}" for i in range(WAYPOINTS)]
    edges = {tuple(sorted((wps[i], wps[rng.randrange(i)]))) for i in range(1, WAYPOINTS)}
    while len(edges) < WAYPOINTS + 1:
        a, b = rng.sample(wps, 2)
        edges.add(tuple(sorted((a, b))))
    visible = set(edges)
    while len(visible) < len(edges) + WAYPOINTS // 2:
        a, b = rng.sample(wps, 2)
        visible.add(tuple(sorted((a, b))))
    objs = [f"obj{i + 1}" for i in range(OBJECTIVES)]
    lander_at = rng.choice(wps)
    start = rng.choice(wps)
    soil_at = rng.sample(wps, SOIL_SAMPLES)
    init = [
        f"(at rover1 {start})", f"(at_lander lander1 {lander_at})",
        "(available rover1)", "(channel_free lander1)", "(empty s1)",
        "(store_of s1 rover1)", "(equipped_for_soil_analysis rover1)",
        "(equipped_for_imaging rover1)", "(on_board cam1 rover1)",
        "(supports cam1 highres)", f"(calibration_target cam1 {objs[0]})",
    ]
    init += [f"(at_soil_sample {w})" for w in sorted(soil_at)]
    for a, b in sorted(edges):
        init += [f"(can_traverse rover1 {a} {b})", f"(can_traverse rover1 {b} {a})"]
    for a, b in sorted(visible):
        init += [f"(visible {a} {b})", f"(visible {b} {a})"]
    for o in objs:
        for w in sorted(rng.sample(wps, 2)):
            init.append(f"(visible_from {o} {w})")
    goal = [f"(communicated_soil_data {w})" for w in sorted(soil_at)]
    goal += [f"(communicated_image_data {o} highres)" for o in objs]
    return "\n".join([
        f"; Generated Rover problem, seed {seed}.",
        f"(define (problem rover-gen-{seed})",
        "  (:domain rover)",
        "  (:objects rover1 - rover " + " ".join(wps) + " - waypoint s1 - store",
        "    cam1 - camera highres - mode lander1 - lander "
        + " ".join(objs) + " - objective)",
        "  (:init",
        *(f"    {atom}" for atom in init),
        "  )",
        "  (:goal (and " + " ".join(goal) + "))",
        ")",
        "",
    ])


def removal_list(domain_path: Path, problem_path: Path, seed: int,
                 target: int) -> list[str]:
    """Up to ``target`` plan-changing removals, by the rule in the module doc."""
    from explan.bench import load_task
    from explan.model import COST, FeatureSet, gamma, remove_features
    from explan.planner import plan_optimal

    task = load_task(domain_path, problem_path)
    model = task.model
    current = plan_optimal(model, task.init, task.goal)
    on_plan = {model.actions[a].name for a in current.actions}
    candidates = [f for f in gamma(model) if f.action in on_plan and f.kind != COST]
    random.Random(seed).shuffle(candidates)
    kept = []
    for feature in candidates:
        human = remove_features(model, FeatureSet([*kept, feature]))
        plan = plan_optimal(human, task.init, task.goal)
        if plan != current:
            kept.append(feature)
            current = plan
            if len(kept) == target:
                break
    return [f.name for f in kept]


def generate(instance: Instance, out: Path) -> None:
    """Write the instance's domain, problem and removal list into ``out``."""
    domain = out / instance.domain
    problem = out / instance.problem_file
    shutil.copyfile(FIXTURES / instance.domain, domain)
    if instance.problem is None:
        problem.write_text(rover_problem(instance.seed))
    else:
        shutil.copyfile(FIXTURES / instance.problem, problem)
    names = removal_list(domain, problem, instance.seed, instance.removals)
    header = f"# {len(names)} plan-changing removals, seed {instance.seed}\n"
    (out / instance.removals_file).write_text(header + "".join(n + "\n" for n in names))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=INPUTS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(checkout_root() / "src"))
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        for instance in workload.instances:
            generate(instance, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
