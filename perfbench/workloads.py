"""The benchmark's workloads: which inputs each runs and why it exists."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


def checkout_root() -> Path:
    return HERE.parent


FIXTURES = checkout_root() / "src" / "explan" / "fixtures"
INPUTS = HERE / "inputs"  # the stress inputs, written by gen.py and committed
METHODS = ("mce", "mce-r", "oeg-pp", "oeg-na", "oeg-ap")


@dataclass(frozen=True)
class Instance:
    """A generated stress instance: a fixture domain, a fixture problem
    (None means a generated Rover problem) and a seeded removal list of up
    to ``removals`` plan-changing features.  Its files in ``INPUTS`` are
    named by the ``*_file`` properties."""

    id: str
    domain: str
    problem: str | None
    seed: int
    removals: int

    @property
    def problem_file(self) -> str:
        return self.problem or f"{self.id}-problem.pddl"

    @property
    def removals_file(self) -> str:
        return f"{self.id}-removals.txt"


@dataclass(frozen=True)
class Workload:
    why: str
    instances: tuple[Instance, ...] = ()
    suites: tuple[str, ...] = ()


WORKLOADS = {
    "stress-diff": Workload(
        why="big diffs on bundled barman-p1 and rover-p1: subset search makes "
            "one model edit per subset tried, so the model-edit layer dominates",
        instances=(
            # rover-p1 first: its short ops would otherwise share the heap
            # that barman grows, and its median op time would swing
            *(Instance(f"rover-p1-s{seed}", "rover-domain.pddl", "rover-p1-problem.pddl", seed, 8)
              for seed in (1, 3, 4, 5)),
            Instance("barman-p1-s1", "barman-domain.pddl", "barman-p1-problem.pddl", 1, 7),
        ),
    ),
    "stress-plan": Workload(
        why="a generated larger Rover task with few plan-changing removals: "
            "optimal planning dominates and model edits stay small",
        instances=(
            Instance("rover-gen-s1", "rover-domain.pddl", None, 1, 3),
        ),
    ),
    "bundled": Workload(
        why="the shipped suites with oracle checks on: 0-3 feature diffs, so "
            "fixed per-op cost (load, diff, oracle, harness) dominates",
        suites=("suite-small.json", "suite-ipc.json"),
    ),
}

# ops whose failure is documented and expected at the reference commit, by
# op key and the one reason they fail: the oracle cross-check applies the
# prefix-preserving contract to oeg-na, which promises less (ROADMAP item 4)
KNOWN_FAILURES = {
    "reshuffle/oeg-na": "oracle_verified=false",
}
