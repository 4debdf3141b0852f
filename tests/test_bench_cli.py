from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import explan
from explan import bench, fixture_path
from explan.bench import (
    BenchRecord,
    SuiteConfig,
    SuiteEntry,
    emit_table,
    run_entry,
    run_suite,
)
from explan.cli import cli_main
from explan.errors import SearchExhausted


def _fx(name: str) -> str:
    return str(fixture_path(name))


@pytest.fixture(scope="module")
def small_records():
    return run_suite(SuiteConfig.from_json(_fx("suite-small.json")))


def test_suite_runs_every_method(small_records):
    assert len(small_records) == 5 * 5
    assert all(r.error is None for r in small_records)
    assert all(r.verified for r in small_records)


def test_minirover2_pp_record_values(small_records):
    record = next(r for r in small_records
                  if r.problem_id == "minirover2" and r.method == "oeg-pp")
    assert record.total_features == 2
    assert record.avg_part_size == 1.0
    assert record.distance == 0.0
    assert record.oracle_verified is True


def test_reshuffle_na_distance_positive(small_records):
    record = next(r for r in small_records
                  if r.problem_id == "reshuffle" and r.method == "oeg-na")
    assert record.distance > 0
    assert record.verified


def test_avg_part_size_bounds(small_records):
    for r in small_records:
        if r.num_parts:
            assert r.avg_part_size >= 1
            assert r.avg_part_size <= r.total_features
            # equality exactly when there is a single part
            if r.num_parts == 1:
                assert r.avg_part_size == r.total_features
            else:
                assert r.avg_part_size < r.total_features


def test_emit_empty_table_is_header_only():
    assert emit_table([]) == "problem,method,total_features,num_parts," \
                             "avg_part_size,distance,time_s,verified\n"


def test_emit_single_record_two_lines():
    record = BenchRecord(problem_id="p", method="mce", total_features=1,
                         num_parts=1, avg_part_size=1.0, distance=0.0,
                         time_s=0.5, verified=True)
    assert emit_table([record]).count("\n") == 2


def test_markdown_has_body_row_per_record(small_records):
    rows = [r for r in small_records if r.problem_id == "minirover"]
    text = emit_table(rows, format="markdown")
    assert text.count("\n") == 2 + len(rows)


def test_json_table_carries_oracle_column(small_records):
    doc = json.loads(emit_table(small_records, format="json"))
    assert {row["problem"] for row in doc} == \
        {"minirover", "minirover2", "tieworld", "reshuffle", "depot"}
    assert all("oracle_verified" in row for row in doc)


def test_suite_reproducible_modulo_time():
    config = SuiteConfig.from_json(_fx("suite-small.json"))

    def stripped():
        rows = emit_table(run_suite(config)).splitlines()
        return ["," .join(c for i, c in enumerate(row.split(",")) if i != 6)
                for row in rows]

    assert stripped() == stripped()


def test_entry_validation():
    with pytest.raises(ValueError):
        SuiteEntry(problem_id="x", domain=fixture_path("minirover-domain.pddl"),
                   problem=fixture_path("minirover-problem.pddl"))


def test_bad_method_rejected():
    with pytest.raises(ValueError):
        SuiteConfig(entries=(), methods=("warp",))


def test_timeout_reports_the_configured_limit(monkeypatch):
    release = threading.Event()
    original = bench.run_method

    def slow(*args, **kwargs):
        release.wait(5)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "run_method", slow)
    entry = SuiteEntry(problem_id="minirover", domain=fixture_path("minirover-domain.pddl"),
                       problem=fixture_path("minirover-problem.pddl"),
                       human_domain=fixture_path("minirover-human.pddl"))
    try:
        record = run_entry(entry, "mce", seed=0, oracle_checks=False, time_limit_s=0.02)
    finally:
        release.set()
    assert record.error == "timeout after 0.02s"


def test_op_errors_map_to_the_record_or_propagate(monkeypatch):
    entry = SuiteEntry(problem_id="minirover", domain=fixture_path("minirover-domain.pddl"),
                       problem=fixture_path("minirover-problem.pddl"),
                       human_domain=fixture_path("minirover-human.pddl"))

    def fail(exc):
        def run_method(*args, **kwargs):
            raise exc
        return run_method

    monkeypatch.setattr(bench, "run_method", fail(SearchExhausted("no plan")))
    record = run_entry(entry, "mce", seed=0, oracle_checks=False, time_limit_s=5)
    assert record.error == "no plan"
    assert record.time_s is not None
    monkeypatch.setattr(bench, "run_method", fail(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        run_entry(entry, "mce", seed=0, oracle_checks=False, time_limit_s=5)


def _run_child(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's explan."""
    src = str(Path(explan.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


def test_timed_out_op_does_not_hold_the_process_open():
    # the stalled op sleeps 3 s; the child prints the clock when run_entry
    # returns, and its exit must not wait for the op to end
    done = _run_child("""
        import time
        from explan import bench, fixture_path

        bench.run_method = lambda *args, **kwargs: time.sleep(3)
        entry = bench.SuiteEntry(
            problem_id="minirover", domain=fixture_path("minirover-domain.pddl"),
            problem=fixture_path("minirover-problem.pddl"),
            human_domain=fixture_path("minirover-human.pddl"))
        record = bench.run_entry(entry, "mce", seed=0, oracle_checks=False,
                                 time_limit_s=0.05)
        print(record.error)
        print(time.monotonic(), flush=True)
    """)
    exited = time.monotonic()
    error, returned = done.stdout.splitlines()
    assert done.returncode == 0, done.stderr
    assert error == "timeout after 0.05s"
    assert exited - float(returned) < 1.5


def test_import_does_not_load_concurrent_futures():
    done = _run_child("""
        import sys
        import explan, explan.bench, explan.reconcile
        print("concurrent.futures" in sys.modules)
    """)
    assert done.stdout == "False\n", done.stderr


# -- command line ---------------------------------------------------------------


def test_cli_plan(capsys):
    code = cli_main(["plan", "--domain", _fx("minirover-domain.pddl"),
                     "--problem", _fx("minirover-problem.pddl")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"actions": ["calibrate", "take-image", "communicate"], "cost": 3}


def test_cli_explain_mce(capsys):
    code = cli_main(["explain", "--method", "mce",
                     "--domain", _fx("minirover-domain.pddl"),
                     "--problem", _fx("minirover-problem.pddl"),
                     "--human-domain", _fx("minirover-human.pddl")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "mce"
    assert doc["total_features"] == 1
    assert doc["verified"] is True


def test_cli_explain_rejects_extra_features(tmp_path, capsys):
    human = fixture_path("minirover-human.pddl").read_text().replace(
        ":effect (have-image)", ":effect (and (have-image) (communicated))")
    path = tmp_path / "human.pddl"
    path.write_text(human)
    code = cli_main(["explain", "--method", "oeg-pp",
                     "--domain", _fx("minirover-domain.pddl"),
                     "--problem", _fx("minirover-problem.pddl"),
                     "--human-domain", str(path)])
    assert code == 3


def test_cli_bench_missing_config_exits_two(capsys):
    assert cli_main(["bench", "--config", "/nonexistent/suite.json"]) == 2


def test_cli_diff_output(capsys):
    code = cli_main(["diff", "--domain", _fx("minirover2-domain.pddl"),
                     "--problem", _fx("minirover2-problem.pddl"),
                     "--remove-features", _fx("minirover2-removals.txt")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["missing"] == ["drill-sample-has-precondition-warmed",
                              "take-image-has-precondition-calibrated"]
    assert doc["extra"] == []


def test_cli_removal_list_skips_indented_comments(tmp_path, capsys):
    removals = tmp_path / "removals.txt"
    removals.write_text("  # indented comment\n"
                        + fixture_path("minirover2-removals.txt").read_text())
    pair = ["--domain", _fx("minirover2-domain.pddl"),
            "--problem", _fx("minirover2-problem.pddl"),
            "--remove-features", str(removals)]
    assert cli_main(["diff", *pair]) == 0
    assert len(json.loads(capsys.readouterr().out)["missing"]) == 2
    assert cli_main(["explain", "--method", "mce", *pair]) == 0
    assert json.loads(capsys.readouterr().out)["total_features"] == 2


def test_cli_trace_verify_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = cli_main(["explain", "--method", "oeg-pp",
                     "--domain", _fx("minirover2-domain.pddl"),
                     "--problem", _fx("minirover2-problem.pddl"),
                     "--remove-features", _fx("minirover2-removals.txt"),
                     "--out", str(trace)])
    assert code == 0
    code = cli_main(["verify", "--trace", str(trace),
                     "--domain", _fx("minirover2-domain.pddl"),
                     "--problem", _fx("minirover2-problem.pddl"),
                     "--remove-features", _fx("minirover2-removals.txt")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True


def test_cli_verify_next_action_part_past_the_plan_end_exits_four(tmp_path, capsys):
    # the human expects a two-action plan, the robot's has one action; a
    # next-action part at step 3 is a failed check (exit 4), not a crash
    domain = tmp_path / "domain.pddl"
    domain.write_text(textwrap.dedent("""\
        (define (domain extend)
          (:requirements :strips)
          (:predicates (g) (p))
          (:action all-in-one :parameters () :precondition (and) :effect (and (g) (p)))
          (:action topper :parameters () :precondition (p) :effect (g)))
        """))
    problem = tmp_path / "problem.pddl"
    problem.write_text("(define (problem extend-1) (:domain extend) (:init) (:goal (g)))\n")
    removals = tmp_path / "removals.txt"
    removals.write_text("all-in-one-has-add-effect-g\n")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"variant": "oeg-na", "parts": [
        {"step": 3, "features": ["all-in-one-has-add-effect-g"]}]}))
    code = cli_main(["verify", "--trace", str(trace), "--domain", str(domain),
                     "--problem", str(problem), "--remove-features", str(removals)])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is False and doc["per_step"][0]["holds"] is False


def test_cli_plan_file_only_for_any_prefix(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"actions": ["walk"], "cost": 2}))
    code = cli_main(["explain", "--method", "oeg-pp",
                     "--domain", _fx("tieworld-domain.pddl"),
                     "--problem", _fx("tieworld-problem.pddl"),
                     "--human-domain", _fx("tieworld-human.pddl"),
                     "--plan-file", str(plan)])
    assert code == 2


def test_cli_plan_file_supplies_any_prefix_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"actions": ["walk"], "cost": 2}))
    code = cli_main(["explain", "--method", "oeg-ap",
                     "--domain", _fx("tieworld-domain.pddl"),
                     "--problem", _fx("tieworld-problem.pddl"),
                     "--human-domain", _fx("tieworld-human.pddl"),
                     "--plan-file", str(plan)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parts"] == []
    assert doc["verified"] is True


def test_cli_bench_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli_main(["bench", "--config", _fx("suite-small.json"),
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("problem,method")
    assert len(lines) == 1 + 25


def test_cli_bench_exits_zero_and_reports_a_failed_entry(tmp_path, capsys):
    removals = tmp_path / "removals.txt"
    removals.write_text("take-image-has-precondition-warp\n")
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "methods": ["mce"],
        "entries": [{"id": "broken", "domain": _fx("minirover-domain.pddl"),
                     "problem": _fx("minirover-problem.pddl"),
                     "remove_features": str(removals)}],
    }))
    assert cli_main(["bench", "--config", str(config)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1].startswith("broken,mce,n/a,")
    assert err.splitlines() == [
        "broken/mce: feature 'take-image-has-precondition-warp' "
        "does not resolve against the model"]


def test_cli_bench_keeps_going_past_an_unreadable_entry(tmp_path, capsys):
    missing = tmp_path / "no-such-domain.pddl"
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "methods": ["mce"],
        "entries": [
            {"id": "good", "domain": _fx("minirover-domain.pddl"),
             "problem": _fx("minirover-problem.pddl"),
             "human_domain": _fx("minirover-human.pddl")},
            {"id": "missing", "domain": str(missing),
             "problem": _fx("minirover-problem.pddl"),
             "human_domain": _fx("minirover-human.pddl")},
        ],
    }))
    assert cli_main(["bench", "--config", str(config)]) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].startswith("good,mce,") and "n/a" not in rows[0]
    assert rows[1].startswith("missing,mce,n/a,")
    assert err.splitlines() == [
        f"missing/mce: [Errno 2] No such file or directory: '{missing}'"]
