"""Outside-in tracer: spans around calls into the program's public functions.

A wrapper is installed at every module attribute that holds a traced
function, because modules such as ``reconcile``, ``oracle`` and ``bench``
import ``apply_features``, ``plan_optimal`` and others by name; patching the
defining module alone would miss their calls.  A traced name that no longer
exists raises instead of reporting zero.

Spans stay in memory as ``[layer, start, end, parent]`` and are written out
when the run ends.  A span's parent is the innermost open span on the same
thread; a span opened on another thread with nothing open there (the bench
harness runs each method in a worker thread) takes the innermost open span
of the main thread.  Self time is a span's duration minus the part of it
that its children cover.  The tracer's own bookkeeping inside a span (the
``_note_*`` hooks) runs in a child span of layer ``NOTE``, which no metric
reports, so it counts in no layer of the program.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

NOTE = "trace.note"

# layer -> (defining module, function names); each call of any of the names
# is one span of that layer
TARGETS = {
    "pddl.parse": ("explan.pddl", ("parse_domain", "parse_problem")),
    "grounding.ground": ("explan.grounding", ("ground",)),
    "bench.load_problem": ("explan.bench", ("load_problem",)),
    "bench.run_entry": ("explan.bench", ("run_entry",)),
    "model.apply_features": ("explan.model", ("apply_features",)),
    "model.remove_features": ("explan.model", ("remove_features",)),
    "model.diff": ("explan.model", ("diff",)),
    "planner.plan_optimal": ("explan.planner", ("plan_optimal",)),
    "planner.exists_optimal_with_prefix": ("explan.planner", ("exists_optimal_with_prefix",)),
    "planner.compile_prefix": ("explan.planner", ("compile_prefix",)),
    "planner.validate": ("explan.planner", ("validate",)),
    "reconcile.search": ("explan.reconcile", ("mce", "mce_random", "oeg_pp", "oeg_na", "oeg_ap")),
    "reconcile.verify_online": ("explan.reconcile", ("verify_online",)),
    "oracle": ("explan.oracle", ("min_complete_subsets", "optimal_plans_of")),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._plan_keys: set[int] = set()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def _wrap(self, layer: str, fn):
        note = getattr(self, "_note_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                if note is not None:
                    inner = self._open(NOTE)
                    note(*args, **kwargs)
                    self._close(inner)
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _note_model_apply_features(self, model, adds, *_):
        self.counts["model.apply_features.feats"] += len(adds)

    def _note_planner_plan_optimal(self, model, init, goal):
        self._plan_keys.add(hash((model, init, goal)))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an ``explan`` module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "explan" or name.startswith("explan.")) and m is not None]
        for layer, (module_name, names) in TARGETS.items():
            home = sys.modules.get(module_name)
            if home is None:
                raise RuntimeError(f"traced module {module_name} is not imported")
            for name in names:
                if not hasattr(home, name):
                    raise RuntimeError(f"traced function {module_name}.{name} no longer exists")
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Self seconds and call counts per layer, plus the layer counters."""
        out: dict[str, float] = defaultdict(float)
        for layer, seconds in self_times(self.spans).items():
            if layer != NOTE:
                out[layer + ".s"] = seconds
        for layer, *_ in self.spans:
            if layer != NOTE:
                out[layer + ".calls"] += 1
        out.update(self.counts)
        calls = out["planner.plan_optimal.calls"]
        out["planner.plan_optimal.distinct"] = len(self._plan_keys)
        out["planner.plan_optimal.repeat_ratio"] = (
            1 - len(self._plan_keys) / calls if calls else 0.0)
        return dict(out)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum per layer of each span's duration minus the union of its children."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    totals: dict[str, float] = defaultdict(float)
    for index, (layer, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[layer] += (end - start) - covered
    return dict(totals)
