"""The fleet window loop does only per-window work, byte-identically.

Four memos sit on the gateway's per-window path: the statistics
watcher merges each distinct batch mapping once, the keyed uniform
draws (measurement noise, backoff jitter) build each seeded generator
once per process, the gateway indexes running tenants per board, and
the RPC phase re-scores a tenant's plan only when the plan or a model
input changed. Each is checked here against the unmemoized computation
it replaces.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro import memo, numerics
from repro.compression.base import StepCost
from repro.control.session import SessionSpec, build_drift_stream
from repro.core.cost_model import CostModel
from repro.core.statistics_regulator import StatisticsAwareRegulator
from repro.core.task import Task
from repro.faults.fleet import FLEET_SCENARIOS
from repro.fleet.backoff import (
    BASE_WINDOWS,
    CAP_WINDOWS,
    FACTOR,
    JITTER,
    BackoffPolicy,
)
from repro.fleet.gateway import Gateway
from repro.fleet.placement import FleetScheduler
from repro.fleet.registry import build_fleet
from repro.fleet.scenario import (
    FLEET_ARMS,
    FleetScenarioSpec,
    run_fleet_arm,
    run_fleet_scenario,
)
from repro.fleet.tenants import build_tenant_catalog, build_tenant_workloads
from repro.numerics import keyed_uniform
from repro.simcore.interconnect import Path


def _scaled(costs, factor):
    return {
        step: StepCost(
            instructions=cost.instructions * factor,
            memory_accesses=cost.memory_accesses * factor,
            input_bytes=cost.input_bytes,
            output_bytes=cost.output_bytes,
        )
        for step, cost in costs.items()
    }


def _unmemoized(regulator):
    """The regulator with its per-mapping memo bypassed: every
    observation merges every stage again."""
    regulator._stage_row = lambda mapping: tuple(
        task.merged_cost(mapping).instructions
        for task in regulator.model.graph.tasks
    )
    return regulator


def _event_tuple(event):
    return (
        event.batch_index,
        tuple(sorted(event.stage_shifts.items())),
        event.max_shift,
        event.drifted,
    )


# -- (a) the statistics watcher ------------------------------------------------


class TestRegulatorMemo:
    @pytest.fixture
    def setup(self, tcomp32_rovio_context, monkeypatch):
        context = tcomp32_rovio_context
        model = context.cost_model(context.fine_graph)
        merges = []
        original = Task.merged_cost

        def counting(task, step_costs):
            merges.append(task.stage_index)
            return original(task, step_costs)

        monkeypatch.setattr(Task, "merged_cost", counting)
        baseline = dict(context.profile.mean_step_costs)
        regulator = StatisticsAwareRegulator(model)
        merges.clear()
        return regulator, baseline, merges

    def test_one_merge_per_stage_per_mapping(self, setup):
        regulator, baseline, merges = setup
        stages = regulator.model.graph.stage_count
        for batch in range(12):
            regulator.observe(batch, baseline)
        assert len(merges) == stages

    def test_equal_but_distinct_mappings_each_merged(self, setup):
        regulator, baseline, merges = setup
        stages = regulator.model.graph.stage_count
        copy = dict(baseline)
        assert copy == baseline and copy is not baseline
        regulator.observe(0, baseline)
        regulator.observe(1, copy)
        regulator.observe(2, baseline)
        regulator.observe(3, copy)
        assert len(merges) == 2 * stages

    def test_fresh_mappings_never_reuse_a_stale_row(self, tcomp32_rovio_context):
        """Mappings built per call and dropped afterwards may share an
        ``id`` with an earlier one; the memo holds each mapping, so an
        id is never answered with another mapping's row."""
        context = tcomp32_rovio_context
        baseline = dict(context.profile.mean_step_costs)
        factors = (1.0, 1.6, 0.7, 1.3, 1.0, 2.2, 0.9, 1.1) * 3
        regulators = [
            StatisticsAwareRegulator(context.cost_model(context.fine_graph)),
            _unmemoized(
                StatisticsAwareRegulator(context.cost_model(context.fine_graph))
            ),
        ]
        traces = []
        for regulator in regulators:
            for batch, factor in enumerate(factors):
                regulator.observe(batch, _scaled(baseline, factor))
            traces.append(
                (
                    [_event_tuple(e) for e in regulator.events],
                    sorted(regulator.model.latency_scale.items()),
                )
            )
        assert traces[0] == traces[1]

    def test_phase_shift_events_match_unmemoized(self, small_harness):
        spec = SessionSpec(scenario="phase-shift")
        context, stream, _ = build_drift_stream(small_harness, spec)
        runs = []
        for memoized in (True, False):
            regulator = StatisticsAwareRegulator(
                context.cost_model(context.fine_graph)
            )
            if not memoized:
                _unmemoized(regulator)
            for batch, mapping in enumerate(stream):
                regulator.observe(batch, mapping)
            runs.append(
                (
                    [_event_tuple(e) for e in regulator.events],
                    sorted(regulator.model.latency_scale.items()),
                )
            )
        assert runs[0] == runs[1]
        assert any(event[3] for event in runs[0][0])


# -- (b) keyed uniform draws ---------------------------------------------------


class TestKeyedUniform:
    GRID_SEEDS = (0, 1, 7, 2**31 + 5)
    GRID_STREAMS = (11, 13)
    GRID_IDS = ((), (0,), (3, 5), (5, 3), (23, 11, 2))

    def test_bit_equal_to_fresh_generator(self):
        for seed in self.GRID_SEEDS:
            for stream in self.GRID_STREAMS:
                for ids in self.GRID_IDS:
                    expected = np.random.default_rng(
                        [seed, stream, *ids]
                    ).random()
                    # twice: the miss and the memo hit
                    assert keyed_uniform(seed, stream, *ids) == expected
                    assert keyed_uniform(seed, stream, *ids) == expected

    def test_bound_holds(self, monkeypatch):
        draws = OrderedDict()
        monkeypatch.setattr(numerics, "_KEYED_UNIFORMS", draws)
        monkeypatch.setattr(numerics, "_KEYED_UNIFORMS_MAX", 8)
        for window in range(20):
            keyed_uniform(3, 13, 1, window)
            assert len(draws) <= 8
        assert list(draws) == [(3, 13, 1, w) for w in range(12, 20)]
        # an evicted key is recomputed to the same value
        assert keyed_uniform(3, 13, 1, 0) == (
            np.random.default_rng([3, 13, 1, 0]).random()
        )

    def test_backoff_schedule_unchanged(self):
        for policy in (
            BackoffPolicy(),
            BackoffPolicy(seed=7),
            BackoffPolicy(seed=3),
        ):
            for key in ((0,), (4,), (2, 9)):
                expected = tuple(
                    min(BASE_WINDOWS * FACTOR ** attempt, CAP_WINDOWS)
                    * (1.0 + JITTER * np.random.default_rng(
                        [policy.seed, 11, *key, attempt]
                    ).random())
                    for attempt in range(7)
                )
                assert tuple(
                    policy.delay_windows(key, attempt) for attempt in range(7)
                ) == expected


class TestLruLookup:
    def test_memoized_none_is_a_hit(self):
        calls = []

        def compute():
            calls.append(1)
            return None

        store = OrderedDict()
        for _ in range(4):
            assert memo.lru_lookup(store, "key", 4, compute) is None
        assert calls == [1]
        assert list(store.items()) == [("key", None)]


# -- (c) the running-tenant index ----------------------------------------------


def _scan_running(gateway, board_index):
    """The full scan the index replaces: every tenant, in id order."""
    return [
        tid
        for tid in sorted(gateway.tenants)
        if gateway.tenants[tid].state == "running"
        and gateway.tenants[tid].board_index == board_index
    ]


class TestRunningIndex:
    def test_index_equals_full_scan_every_window(self, monkeypatch):
        checked = []
        record = Gateway._record_window

        def checking(gateway, window):
            for board_index in sorted(gateway.boards):
                indexed = [
                    t.tenant_id for t in gateway._running_on(board_index)
                ]
                assert indexed == _scan_running(gateway, board_index), (
                    gateway.label, window, board_index,
                )
                checked.append(len(indexed))
            record(gateway, window)

        monkeypatch.setattr(Gateway, "_record_window", checking)
        for scenario in FLEET_SCENARIOS:
            comparison = run_fleet_scenario(
                FleetScenarioSpec(boards=3, tenants=6, scenario=scenario)
            )
            assert set(comparison.healths) == set(FLEET_ARMS)
        assert len(checked) == len(FLEET_SCENARIOS) * len(FLEET_ARMS) * 12 * 3
        # the scenarios do run tenants and do take them off again
        assert max(checked) > 0 and min(checked) == 0


# -- arm order -----------------------------------------------------------------


class TestArmOrder:
    @pytest.mark.parametrize("scenario", FLEET_SCENARIOS)
    def test_reversed_arms_byte_identical(self, scenario):
        spec = FleetScenarioSpec(boards=3, tenants=6, scenario=scenario, seed=4)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed), seed=spec.seed
        )
        scheduler = FleetScheduler(workloads, boards, seed=spec.seed)
        reversed_json = {
            arm: run_fleet_arm(
                spec, arm, workloads=workloads, boards=boards,
                scheduler=scheduler,
            ).to_json()
            for arm in reversed(FLEET_ARMS)
        }
        forward = run_fleet_scenario(spec)
        for arm in FLEET_ARMS:
            assert forward.healths[arm].to_json() == reversed_json[arm]


# -- (d) change-driven RPC pricing ---------------------------------------------


def _always_score(gateway, tenant):
    """The pricing the helper replaces: score every tenant-window."""
    plan = tenant.controller.plan
    modeled, energy, _ = tenant.controller.model.score(
        plan.assignments, plan.graph
    )
    return modeled, energy


class TestChangeDrivenPricing:
    @pytest.mark.parametrize("size", [(3, 6, 6), (12, 24, 24)])
    @pytest.mark.parametrize("scenario", FLEET_SCENARIOS)
    def test_reports_equal_always_scoring(self, monkeypatch, size, scenario):
        boards, tenants, windows = size
        spec = FleetScenarioSpec(
            boards=boards, tenants=tenants, windows=windows,
            scenario=scenario,
        )
        priced = run_fleet_scenario(spec)
        monkeypatch.setattr(Gateway, "_price", _always_score)
        scored = run_fleet_scenario(spec)
        for arm in FLEET_ARMS:
            assert priced.healths[arm].to_json() == scored.healths[arm].to_json()

    # Board 0 is throttled at window 3; the mutations below hit another
    # board's tenant at the end of window 5.
    SPEC = FleetScenarioSpec(
        boards=3, tenants=6, windows=10, scenario="board-throttle",
    )
    MUTATED_AFTER = 5

    @staticmethod
    def _adopt(tenant):
        plan = tenant.controller.plan
        cores = tenant.controller.model.board.core_ids
        first = plan.assignments[0][0]
        other = next(core for core in cores if core != first)
        tenant.controller.plan = plan.remap_cores({first: other})

    @staticmethod
    def _recalibrate(tenant):
        scales = tenant.controller.model.latency_scale
        scales[0] = scales.get(0, 1.0) * 1.25

    @staticmethod
    def _cap_frequency(tenant):
        # what the controller does on a throttle signal, without the
        # failover replan that usually also swaps the plan
        model = tenant.controller.model
        model.frequency_map = {core: 408.0 for core in model.board.core_ids}

    @staticmethod
    def _degrade(tenant):
        tenant.controller.model.apply_path_degradation(Path.C0, 2.0)

    def _run(self, monkeypatch, mutate=None):
        """Static arm of SPEC. Returns ``(scored, expected)``: the
        (window, tenant id) of every RPC-phase score, and the ones a
        re-score is due in — each install window, the window after the
        throttle for board 0's tenants, and the window after the
        mutation for the mutated tenant."""
        window_of_phase = []
        pricing = []
        scored = set()
        expected = set()
        real_rpc = Gateway._rpc_phase
        real_price = Gateway._price
        real_score = CostModel.score
        real_install = Gateway._install
        real_record = Gateway._record_window

        def rpc_phase(gateway, window, traffic_ok):
            window_of_phase.append(window)
            real_rpc(gateway, window, traffic_ok)

        def price(gateway, tenant):
            pricing.append(tenant.tenant_id)
            try:
                return real_price(gateway, tenant)
            finally:
                pricing.pop()

        def score(model, *args, **kwargs):
            if pricing:
                scored.add((window_of_phase[-1], pricing[-1]))
            return real_score(model, *args, **kwargs)

        def install(gateway, tenant, placement, window):
            expected.add((window, tenant.tenant_id))
            real_install(gateway, tenant, placement, window)

        def record(gateway, window):
            real_record(gateway, window)
            if window == self.SPEC.at_window:
                expected.update(
                    (window + 1, t.tenant_id) for t in gateway._running_on(0)
                )
            if window == self.MUTATED_AFTER and mutate is not None:
                tenant = next(
                    gateway._running_on(b)[0]
                    for b in sorted(gateway.boards)
                    if b != self.SPEC.fault_board and gateway._running_on(b)
                )
                mutate(tenant)
                expected.add((window + 1, tenant.tenant_id))

        monkeypatch.setattr(Gateway, "_rpc_phase", rpc_phase)
        monkeypatch.setattr(Gateway, "_price", price)
        monkeypatch.setattr(CostModel, "score", score)
        monkeypatch.setattr(Gateway, "_install", install)
        monkeypatch.setattr(Gateway, "_record_window", record)
        run_fleet_arm(self.SPEC, "static")
        return scored, expected

    @pytest.mark.parametrize(
        "mutation",
        [None, "_adopt", "_recalibrate", "_cap_frequency", "_degrade"],
    )
    def test_rescored_exactly_after_a_change(self, monkeypatch, mutation):
        mutate = None if mutation is None else getattr(self, mutation)
        scored, expected = self._run(monkeypatch, mutate)
        # the throttle reaches a running tenant, so its model moved
        assert any(w == self.SPEC.at_window + 1 for w, _ in expected)
        assert scored == expected
