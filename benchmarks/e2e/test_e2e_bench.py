"""Tests of the end-to-end benchmark (not tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from stats import tail_percentile  # noqa: E402
from workloads import build_ops, digest  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _program_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One quick, traced run of every workload on seed 0 (a zero time
    budget: the fewest rounds)."""
    folder = tmp_path_factory.mktemp("quick")
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0",
            "--trace", "--out", str(folder / "record.json"),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    record = json.loads((folder / "record.json").read_text())
    return result, record, run.TRACE_FILE


def test_quick_run_emits_every_declared_metric(quick_run):
    result, record, _ = quick_run
    assert result["correct"] and result["failed"] == 0
    assert record["failed"] == 0 and record["attempted"] == result["attempted"]
    declared_workloads = [w["name"] for w in DECLARED["workloads"]]
    assert list(record["workloads"]) == declared_workloads
    for workload in declared_workloads:
        for metric in DECLARED["end_to_end"]:
            reported = record["workloads"][workload]["end_to_end"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["median"] > 0
        for metric in DECLARED["per_layer"]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]


def test_host_trace_validates(quick_run):
    _, _, trace = quick_run
    for tool in ("repro.obs.check", "repro.analysis.verify"):
        checked = subprocess.run(
            [sys.executable, "-m", tool, str(trace)],
            capture_output=True, text=True, env=_program_env(), timeout=120,
        )
        assert checked.returncode == 0, checked.stdout + checked.stderr
    payload = json.loads(trace.read_text())
    names = {e["args"]["name"] for e in payload["traceEvents"] if e["name"] == "process_name"}
    assert names == {w["name"] for w in DECLARED["workloads"]}


def _record(*ops):
    return {"ops": [
        {"id": op_id, "digest": value, "problems": [] if value else ["raised"]}
        for op_id, value in ops
    ]}


def test_planted_wrong_reference_digest_fails_the_op():
    checker = run.Checker(seed=0)
    checker.reference = {"quick": {"fleet": {"board-crash": "0" * 64}}}
    checker.check("quick", "fleet", _record(("board-crash", "f" * 64)))
    assert (checker.attempted, checker.failed) == (1, 1)


def test_repeats_must_agree_on_other_seeds():
    checker = run.Checker(seed=7)
    checker.check("full", "fleet", _record(("board-crash", "a" * 64)))
    checker.check("full", "fleet", _record(("board-crash", "a" * 64)))
    assert checker.failed == 0
    checker.check("full", "fleet", _record(("board-crash", "b" * 64)))
    assert (checker.attempted, checker.failed) == (3, 1)


def test_a_raising_first_repeat_fails_once():
    checker = run.Checker(seed=7)
    checker.check("full", "fleet", _record(("board-crash", None)))
    for _ in range(3):
        checker.check("full", "fleet", _record(("board-crash", "a" * 64)))
    assert (checker.attempted, checker.failed) == (4, 1)


def test_self_time_of_hand_built_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks, 10.0))
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (middle(), leaf()))
    # origin 0; outer 1..10 holds middle 2..7 (which holds leaf 5..6)
    # and leaf 8..10
    outer()
    calls = {name: entry[0] for name, entry in tracer.totals.items()}
    assert calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert tracer.totals["leaf"][1:] == [3.0, 3.0]
    assert tracer.totals["middle"][1:] == [5.0, 4.0]
    assert tracer.totals["outer"][1:] == [9.0, 2.0]
    depths = {(span.name, span.depth) for span in tracer.spans}
    assert depths == {("outer", 0), ("middle", 1), ("leaf", 2), ("leaf", 1)}


@pytest.mark.parametrize("workload", ["figgrid", "traced", "session", "fleet"])
def test_traced_op_digest_equals_untraced(workload):
    with tempfile.TemporaryDirectory() as plain, tempfile.TemporaryDirectory() as shimmed:
        untraced = [digest(op.outputs(op.run())) for op in build_ops(workload, 0, "quick", plain)]
        ops = build_ops(workload, 0, "quick", shimmed)
        with Tracer() as tracer:
            traced = [digest(op.outputs(op.run())) for op in ops]
        assert tracer.totals, "no layer ran under the shims"
    assert traced == untraced


def test_every_wrapped_target_is_restored():
    with tempfile.TemporaryDirectory() as scratch:
        ops = build_ops("fleet", 0, "quick", scratch)
        tracer = Tracer().install()
        patched = tracer.patched
        for op in ops:
            op.run()
        tracer.uninstall()
    # by-name imports and overriding subclasses are patched as well
    assert len(patched) > len(TARGETS)
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1, abs=1.0)
    assert tail_percentile(list(range(108)), 90) is not None


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "higher", 0.1) == "better"
    assert compare.verdict([10, 10.1, 9.9], [10.2, 10.1, 10.3], "higher", 0.1) == "unchanged"
    assert compare.verdict([10, 10.1, 9.9], [10, 10.1, 9.9], "lower", 0.1) == "unchanged"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1) == "worse"
    assert compare.verdict([5, 10, 15], [6, 10, 14], "higher", 0.1) == "unresolved"
    assert compare.paired_verdict([10] * 10, [12] * 10, "higher", 0.1) == ("better", 10)
    assert compare.paired_verdict([10] * 9, [12] * 9, "higher", 0.1)[0] == "no claim"
