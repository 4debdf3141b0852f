"""Tests of the benchmark itself: input generation, tracing, result checking.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import INPUTS, WORKLOADS, Instance  # noqa: E402


def _generate(tmp_path: Path, name: str, instance: Instance) -> dict[str, bytes]:
    out = tmp_path / name
    out.mkdir()
    gen.generate(instance, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("problem", ["rover-p1-problem.pddl", None])
def test_generation_is_deterministic_per_seed(tmp_path, problem):
    def instance(seed):
        return Instance("x", "rover-domain.pddl", problem, seed, 1)

    first = _generate(tmp_path, "a", instance(1))
    assert first == _generate(tmp_path, "b", instance(1))
    assert first != _generate(tmp_path, "c", instance(3))


def test_removals_each_change_the_human_plan(tmp_path):
    files = _generate(tmp_path, "a", Instance("x", "barman-domain.pddl",
                                              "barman-p1-problem.pddl", 1, 4))
    names = [ln for ln in files["x-removals.txt"].decode().splitlines()
             if not ln.startswith("#")]
    assert len(names) == 4 and len(set(names)) == 4
    assert all("-has-cost-" not in n for n in names)


def test_every_stress_instance_has_its_committed_inputs():
    for workload in WORKLOADS.values():
        for inst in workload.instances:
            for name in (inst.domain, inst.problem_file, inst.removals_file):
                assert (INPUTS / name).is_file(), name
            removals = (INPUTS / inst.removals_file).read_text().splitlines()
            assert 0 < len([ln for ln in removals if not ln.startswith("#")]) <= inst.removals


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],    # overlaps its sibling (another thread)
        ["b", 3.0, 6.0, 0],
        ["a", 2.0, 3.0, 1],    # nested: counts against its parent only
        ["b", 9.0, 12.0, 0],   # runs past its parent: clipped for the parent
    ]
    self_s = tracer.self_times(spans)
    assert self_s["root"] == pytest.approx(10 - (5 + 1))
    assert self_s["a"] == pytest.approx((3 - 1) + 1)
    assert self_s["b"] == pytest.approx(3 + 3)


def test_worker_thread_spans_attach_to_the_main_threads_open_span():
    import threading

    t = tracer.Tracer()
    outer = t._open("outer")
    worker = threading.Thread(target=lambda: t._close(t._open("inner")))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    t._close(outer)
    assert [s[3] for s in t.spans] == [None, 0]


def test_note_hooks_run_inside_the_span_and_count_in_no_layer():
    t = tracer.Tracer()
    wrapped = t._wrap("model.apply_features", lambda model, adds: None)
    caller = t._open("caller")
    wrapped(None, ["f1", "f2"])
    t._close(caller)
    assert [(s[0], s[3]) for s in t.spans] == [
        ("caller", None), ("model.apply_features", 0), (tracer.NOTE, 1)]
    metrics = t.metrics()
    assert metrics["model.apply_features.feats"] == 2
    assert metrics["model.apply_features.calls"] == 1
    assert not any(name.startswith(tracer.NOTE) for name in metrics)


def test_tracer_wraps_every_lookup_site_and_restores_them():
    import explan.bench
    import explan.model
    import explan.oracle
    import explan.reconcile

    original = explan.model.apply_features
    t = tracer.Tracer()
    t.install()
    try:
        for module in (explan.model, explan.reconcile, explan.oracle, explan):
            assert module.apply_features is not original
        assert explan.bench.run_method is not None
    finally:
        t.uninstall()
    for module in (explan.model, explan.reconcile, explan.oracle, explan):
        assert module.apply_features is original


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    import explan.model  # noqa: F401

    monkeypatch.setitem(tracer.TARGETS, "model.gone", ("explan.model", ("no_such_function",)))
    with pytest.raises(RuntimeError, match="no longer exists"):
        tracer.Tracer().install()


def _op(key, **result):
    return {"key": key, "result": {"total_features": 2, "verified": True, **result}}


def test_reference_check_catches_a_perturbed_result():
    reference = {"p/mce": {"total_features": 2, "verified": True},
                 "p/oeg-pp": {"total_features": 2, "verified": True}}
    ops = run.judge([_op("p/mce"), _op("p/oeg-pp", total_features=3)], reference)
    assert ops[0]["reasons"] == []
    assert ops[1]["reasons"] == ["differs from the reference"]
    assert not ops[1]["known"]


def test_known_failure_is_marked_only_when_it_is_the_sole_reason():
    reference = {"reshuffle/oeg-na": {"total_features": 2, "verified": True}}
    known = dict(_op("reshuffle/oeg-na"), oracle_verified=False)
    worse = dict(_op("reshuffle/oeg-na", total_features=1), oracle_verified=False)
    ops = run.judge([known, worse], reference)
    assert ops[0]["known"] and ops[0]["reasons"] == ["oracle_verified=false"]
    assert not ops[1]["known"]
