"""One search per planning problem.

:meth:`WorkloadContext.build` memoizes contexts process-wide on
(board key, profile fingerprint, L_set, seed, frequency map), and
:meth:`WorkloadContext.plan` memoizes each context's best-effort
schedule per graph. These tests pin that a memoized plan is the plan a
fresh search finds, that the key separates every input, the
least-recently-used bound, that no caller mutates a shared plan, that
fleet scenarios do not depend on which one filled the memo first, and
that no call site searches a fresh default model outside the memo.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import pickle
import weakref
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro import CStream
from repro.bench.harness import Harness
from repro.control.session import SessionSpec, run_adaptive_session
from repro.core import baselines
from repro.core.baselines import WorkloadContext
from repro.core.profiler import profile_named
from repro.core.scheduler import Scheduler
from repro.errors import InfeasiblePlanError
from repro.faults.chaos import ChaosSpec, run_chaos_session
from repro.faults.fleet import FLEET_SCENARIOS
from repro.fleet.scenario import FleetScenarioSpec, run_fleet_scenario
from repro.simcore.boards import jetson_tx2_like, rk3399


def deterministic_pairs(stats):
    """Search-stats pairs minus wall-clock time."""
    return tuple(
        (name, value) for name, value in stats.as_pairs()
        if name != "wall_clock_s"
    )


def assert_equals_fresh_search(context, graph, result):
    fresh = Scheduler(context.cost_model(graph)).schedule(best_effort=True)
    assert result == fresh
    assert result.estimate == fresh.estimate
    assert result.plan == fresh.plan
    assert (
        dict(result.estimate.core_load_us_per_byte)
        == dict(fresh.estimate.core_load_us_per_byte)
    )
    assert deterministic_pairs(result.search_stats) == deterministic_pairs(
        fresh.search_stats
    )


@pytest.fixture
def contexts(monkeypatch):
    """Start from an empty context memo."""
    memo = OrderedDict()
    monkeypatch.setattr(baselines, "_CONTEXTS", memo)
    return memo


@pytest.fixture(scope="module")
def profile():
    return profile_named("tcomp32", "rovio", 8192, batches=4)


class TestPlan:
    @pytest.mark.parametrize("board", [rk3399, jetson_tx2_like])
    @pytest.mark.parametrize("l_set", [4.0, 26.0])
    def test_hit_equals_a_fresh_search(self, contexts, profile, board, l_set):
        context = WorkloadContext.build(board(), profile, l_set)
        for graph in (context.fine_graph, context.coarse_graph):
            first = context.plan(graph)
            assert context.plan(graph) is first
            assert_equals_fresh_search(context, graph, first)

    def test_plans_live_on_the_context(self, contexts, profile):
        context = WorkloadContext.build(rk3399(), profile, 26.0)
        result = context.plan(context.fine_graph)
        assert context._plans == {context.fine_graph: result}
        assert "_plans" not in repr(context)

    def test_an_equal_graph_shares_the_plan(self, contexts, profile):
        context = WorkloadContext.build(rk3399(), profile, 26.0)
        copy = pickle.loads(pickle.dumps(context.fine_graph))
        assert copy is not context.fine_graph
        assert context.plan(copy) is context.plan(context.fine_graph)

    def test_plans_die_with_their_context(self, contexts, profile):
        # a plan memo keyed by address would outlive its context and
        # could serve its plan to a later context at the same address;
        # a tight and a loose L_set give different plans
        board = rk3399()
        for l_set in (4.0, 60.0, 4.0):
            context = WorkloadContext.build(board, profile, l_set)
            result = context.plan(context.fine_graph)
            assert_equals_fresh_search(context, context.fine_graph, result)
            released = weakref.ref(result)
            del context, result
            contexts.clear()
            gc.collect()
            assert released() is None


class TestFacade:
    def test_each_call_honours_best_effort(self, contexts):
        # a tight L_set: no plan is feasible
        framework = CStream(
            codec="tcomp32", dataset="rovio", batch_size=8192,
            latency_constraint_us_per_byte=4.0, profile_batches=3,
        )
        result = framework.plan(best_effort=True)
        assert not result.feasible
        context = framework.context()
        assert context.plan(context.fine_graph) is result
        with pytest.raises(InfeasiblePlanError):
            framework.plan()
        assert framework.plan(best_effort=True) is result


class TestKey:
    def test_same_inputs_share_one_context(self, contexts, profile):
        first = WorkloadContext.build(
            rk3399(), profile, 26.0, frequency_map={4: 1800.0}
        )
        again = WorkloadContext.build(
            rk3399(), pickle.loads(pickle.dumps(profile)), 26.0,
            frequency_map={4: 1800.0},
        )
        assert again is first
        assert len(contexts) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("latency_constraint_us_per_byte", 20.0),
            ("seed", 1),
            ("frequency_map", {4: 1200.0}),
            ("frequency_map", {4: 1800.0, 0: 1200.0}),
            ("board", None),
        ],
        ids=["l_set", "seed", "frequency", "frequency-items", "board"],
    )
    def test_one_differing_input_is_a_new_context(
        self, contexts, profile, field, value
    ):
        base = dict(
            board=rk3399(),
            profile=profile,
            latency_constraint_us_per_byte=26.0,
            seed=0,
            frequency_map={4: 1800.0},
        )
        varied = dict(base, **{field: value})
        if field == "board":
            varied["board"] = jetson_tx2_like()
        first = WorkloadContext.build(**base)
        second = WorkloadContext.build(**varied)
        assert second is not first
        assert len(contexts) == 2
        for context, inputs in ((first, base), (second, varied)):
            assert context.board.key() == inputs["board"].key()
            assert (
                context.latency_constraint_us_per_byte
                == inputs["latency_constraint_us_per_byte"]
            )
            assert context.seed == inputs["seed"]
            assert context.frequency_map == inputs["frequency_map"]

    def test_a_callers_frequency_map_is_copied(self, contexts, profile):
        frequency_map = {4: 1800.0}
        context = WorkloadContext.build(
            rk3399(), profile, 26.0, frequency_map=frequency_map
        )
        frequency_map[4] = 408.0
        assert context.frequency_map == {4: 1800.0}

    def test_none_and_no_frequencies_differ(self, contexts, profile):
        assert WorkloadContext.build(
            rk3399(), profile, 26.0, frequency_map=None
        ) is not WorkloadContext.build(
            rk3399(), profile, 26.0, frequency_map={}
        )


class TestKeysComputedOnce:
    def test_board_key_is_its_repr_and_is_not_pickled(self):
        board = rk3399()
        before = pickle.dumps(board)
        assert board.key() == repr(board)
        assert board.key() is board.key()
        assert pickle.dumps(board) == before
        assert "_key" not in pickle.loads(pickle.dumps(board)).__dict__

    def test_profile_fingerprint_is_not_pickled(self):
        profile = profile_named("tdic32", "rovio", 4096, batches=2)
        before = pickle.dumps(profile)
        digest = hashlib.sha256(repr(profile).encode("utf-8")).hexdigest()
        assert profile.fingerprint() == digest[:16]
        assert profile.fingerprint() is profile.fingerprint()
        assert pickle.dumps(profile) == before
        loaded = pickle.loads(pickle.dumps(profile))
        assert "_fingerprint" not in loaded.__dict__
        assert loaded.fingerprint() == profile.fingerprint()


class TestBound:
    def test_least_recently_used_context_is_evicted(
        self, monkeypatch, contexts, profile
    ):
        calls = []
        original = baselines.decompose

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(baselines, "decompose", counting)
        size = baselines._CONTEXTS_MAX
        board = rk3399()

        def build(l_set):
            return WorkloadContext.build(board, profile, float(l_set))

        oldest = build(1)
        for l_set in range(2, size + 1):
            build(l_set)
        assert build(1) is oldest  # read: l_set 1 is now the newest entry
        build(size + 1)  # one past the bound evicts l_set 2
        assert len(contexts) == size
        assert len(calls) == size + 1
        assert build(1) is oldest
        assert len(calls) == size + 1
        build(2)
        assert len(calls) == size + 2


def small_harness(**options):
    return Harness(
        repetitions=1, batches_per_repetition=3, profile_batches=3,
        cache=None, **options,
    )


def test_sessions_leave_every_memoized_plan_unchanged(contexts):
    run_fleet_scenario(FleetScenarioSpec(boards=3, tenants=6, windows=6))
    run_chaos_session(
        Harness(
            board=rk3399(), repetitions=1, batches_per_repetition=18,
            profile_batches=3, cache=None,
        ),
        ChaosSpec(scenario="core-failure", batch_bytes=8192),
    )
    run_adaptive_session(small_harness(), SessionSpec(scenario="phase-shift"))
    memoized = [
        (context, graph, result)
        for context in contexts.values()
        for graph, result in context._plans.items()
    ]
    assert len(memoized) >= 6 + 6 * 3
    for context, graph, result in memoized:
        assert_equals_fresh_search(context, graph, result)


def fleet_digests(scenarios):
    digests = {}
    for scenario in scenarios:
        comparison = run_fleet_scenario(
            FleetScenarioSpec(
                boards=3, tenants=6, windows=6, scenario=scenario
            )
        )
        for arm, health in sorted(comparison.healths.items()):
            digests[(scenario, arm)] = hashlib.sha256(
                health.to_json().encode("utf-8")
            ).hexdigest()
    return digests


def test_fleet_scenarios_do_not_depend_on_their_order(monkeypatch):
    scenarios = tuple(s for s in FLEET_SCENARIOS if s != "none")
    monkeypatch.setattr(baselines, "_CONTEXTS", OrderedDict())
    forward = fleet_digests(scenarios)
    monkeypatch.setattr(baselines, "_CONTEXTS", OrderedDict())
    backward = fleet_digests(tuple(reversed(scenarios)))
    assert forward == backward


# -- no fresh-model search outside the memo ----------------------------------


def _is_default_model(node) -> bool:
    """``<context>.cost_model(graph)`` without options."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cost_model"
        and len(node.args) == 1
        and not node.keywords
    )


def _best_effort_searches(tree):
    """(function, line) of each ``Scheduler(m).schedule(best_effort=True)``
    whose ``m`` is a default model, inline or assigned in the function."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        default_models = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and _is_default_model(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "schedule"
                and not node.args
                and [(k.arg, getattr(k.value, "value", None))
                     for k in node.keywords] == [("best_effort", True)]
            ):
                continue
            scheduler = node.func.value
            if not (
                isinstance(scheduler, ast.Call)
                and getattr(scheduler.func, "id", None) == "Scheduler"
                and len(scheduler.args) == 1
                and not scheduler.keywords
            ):
                continue
            model = scheduler.args[0]
            if _is_default_model(model) or (
                isinstance(model, ast.Name) and model.id in default_models
            ):
                found.append((function.name, node.lineno))
    return found


def test_the_scan_finds_both_spellings():
    source = (
        "def inline(context, graph):\n"
        "    return Scheduler(context.cost_model(graph)).schedule("
        "best_effort=True)\n"
        "def assigned(context):\n"
        "    model = context.cost_model(context.fine_graph)\n"
        "    return Scheduler(model).schedule(best_effort=True)\n"
        "def optioned(context):\n"
        "    model = context.cost_model(context.fine_graph, guard_band=0.9)\n"
        "    return Scheduler(model).schedule(best_effort=True)\n"
    )
    found = _best_effort_searches(ast.parse(source))
    assert [name for name, _ in found] == ["inline", "assigned"]


def test_only_workload_context_plan_searches_a_default_model():
    root = Path(repro.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _best_effort_searches(tree):
            found[f"{path.relative_to(root).as_posix()}:{name}"] = line
    assert list(found) == ["core/baselines.py:plan"]
