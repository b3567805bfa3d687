"""Fleet serving tier: admission, shedding, breaker, failover.

The scenario runs are the expensive part (each arm mounts one
SessionController per placed tenant), so the three-arm comparison is
computed once per fleet size at module scope and every acceptance
check reads from it.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.verify import main as verify_main
from repro.analysis.verify import verify_fleet_health
from repro.control.controller import SessionController
from repro.core import baselines
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.fleet.backoff import BackoffPolicy
from repro.fleet.breaker import (
    LEGAL_TRANSITIONS,
    BreakerConfig,
    CircuitBreaker,
)
from repro.fleet.placement import FleetScheduler
from repro.fleet.registry import BOARD_KINDS, build_fleet
from repro.fleet.scenario import (
    FLEET_ARMS,
    FleetScenarioSpec,
    run_fleet_arm,
    run_fleet_scenario,
)
from repro.fleet.tenants import build_tenant_catalog, build_tenant_workloads
from repro.obs.health import FleetHealth, from_record


@pytest.fixture(scope="module")
def comparison_small():
    return run_fleet_scenario(FleetScenarioSpec(boards=3, tenants=6))


@pytest.fixture(scope="module")
def comparison_large():
    return run_fleet_scenario(FleetScenarioSpec(boards=6, tenants=12))


class TestBackoffDeterminism:
    def test_identical_across_reruns(self):
        first = BackoffPolicy(seed=7)
        second = BackoffPolicy(seed=7)
        for tenant_id in range(4):
            for attempt in range(6):
                assert first.delay_windows((tenant_id,), attempt) == (
                    second.delay_windows((tenant_id,), attempt)
                )

    def test_independent_of_computation_order(self):
        policy = BackoffPolicy(seed=3)
        keys = [(tenant, attempt) for tenant in range(6)
                for attempt in range(5)]
        serial = {
            key: policy.delay_windows((key[0],), key[1]) for key in keys
        }
        # jobs=2: the same draws from two workers in scrambled order
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                key: pool.submit(policy.delay_windows, (key[0],), key[1])
                for key in reversed(keys)
            }
            threaded = {key: f.result() for key, f in futures.items()}
        assert serial == threaded

    def test_delays_grow_and_respect_cap(self):
        policy = BackoffPolicy()
        schedule = [policy.delay_windows((0,), attempt) for attempt in range(8)]
        # pre-jitter growth is monotone until the cap; jitter is < 25%
        # so each delay stays within its attempt's envelope
        for attempt, delay in enumerate(schedule):
            raw = min(
                policy.base_windows * policy.factor ** attempt,
                policy.cap_windows,
            )
            assert raw <= delay < raw * (1.0 + policy.jitter)
            assert delay <= policy.cap_windows * (1.0 + policy.jitter)

    def test_distinct_keys_get_distinct_jitter(self):
        policy = BackoffPolicy()
        delays = {policy.delay_windows((t,), 0) for t in range(8)}
        assert len(delays) == 8  # no thundering herd

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base_windows=0.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy().delay_windows((0,), -1)


class TestCircuitBreaker:
    def test_full_cycle(self):
        breaker = CircuitBreaker(
            board_index=0,
            config=BreakerConfig(failure_threshold=2, cooldown_windows=2),
        )
        assert breaker.allows_traffic(0)
        breaker.record_failure(0)
        assert breaker.state == "closed"
        breaker.record_failure(1)
        assert breaker.state == "open"
        assert not breaker.allows_traffic(2)  # cooling down
        assert breaker.allows_traffic(3)  # probe window
        assert breaker.state == "half-open"
        breaker.record_failure(3)
        assert breaker.state == "open"
        assert breaker.allows_traffic(5)
        breaker.record_success(5)
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_transitions_replayable(self):
        breaker = CircuitBreaker(board_index=0)
        for window in range(2):
            breaker.record_failure(window)
        assert breaker.allows_traffic(3)  # cooldown elapsed: half-open
        breaker.record_success(3)
        state = "closed"
        for transition in breaker.transitions:
            assert transition.from_state == state
            assert (
                transition.from_state, transition.to_state
            ) in LEGAL_TRANSITIONS
            state = transition.to_state
        assert state == breaker.state == "closed"

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(board_index=0)
        breaker.record_failure(0)
        breaker.record_success(1)
        breaker.record_failure(2)
        assert breaker.state == "closed"  # never reached the threshold


class TestFleetRegistry:
    def test_three_kinds_cycle(self):
        fleet = build_fleet(4)
        assert [b.kind for b in fleet] == [
            "rk3399", "jetson", "edge", "rk3399",
        ]
        assert [b.board_index for b in fleet] == [0, 1, 2, 3]
        assert len({b.name for b in fleet}) == 4

    def test_edge_board_is_asymmetric(self):
        board = BOARD_KINDS["edge"]()
        assert len(board.little_core_ids) == 2
        assert len(board.big_core_ids) == 4

    def test_catalog_slos_scale_with_priority(self):
        workloads = build_tenant_workloads(
            build_tenant_catalog(3), seed=0
        )
        for workload in workloads:
            assert (
                workload.l_set_us_per_byte
                > workload.reference_latency_us_per_byte
            )


class TestScenarioAcceptance:
    @pytest.mark.parametrize("fixture_name",
                             ["comparison_small", "comparison_large"])
    def test_failover_beats_static(self, fixture_name, request):
        comparison = request.getfixturevalue(fixture_name)
        static = comparison.summary("static")
        failover = comparison.summary("shed-failover")
        # the crash strands the static arm's victims for good
        assert static.steady_violations > 0
        # acceptance bar: all victims re-placed within 3 windows of the
        # crash, and <= 25% of static's steady-state violations remain
        assert failover.failovers >= 1
        assert failover.failover_lag_windows is not None
        assert failover.failover_lag_windows <= 3
        assert (
            failover.steady_violations <= 0.25 * static.steady_violations
        )

    def test_shedding_alone_already_helps(self, comparison_small):
        static = comparison_small.summary("static")
        shed = comparison_small.summary("shed")
        assert shed.steady_violations < static.steady_violations
        assert shed.sheds >= 1
        assert shed.failovers == 0

    def test_every_arm_admits_the_catalogue(self, comparison_small):
        for arm in FLEET_ARMS:
            assert comparison_small.summary(arm).tenants_admitted == 6

    def test_no_tenant_runs_on_the_dead_board(self, comparison_small):
        for arm in FLEET_ARMS:
            health = comparison_small.healths[arm]
            for window in health.windows:
                dead = {
                    b.board_index for b in window.boards if not b.alive
                }
                for tenant in window.tenants:
                    if tenant.state == "running":
                        assert tenant.board_index not in dead

    def test_breaker_trace_replays_from_the_report(self, comparison_small):
        health = comparison_small.healths["shed-failover"]
        per_board = {}
        for event in health.events:
            if event.kind != "breaker":
                continue
            edge = event.detail.split(" (")[0]
            from_state, to_state = edge.split("->")
            per_board.setdefault(event.board_index, []).append(
                (from_state, to_state)
            )
        assert per_board, "crash must trip at least one breaker"
        for board_index, edges in per_board.items():
            state = "closed"
            for from_state, to_state in edges:
                assert from_state == state, board_index
                assert (from_state, to_state) in LEGAL_TRANSITIONS
                state = to_state
            final = health.windows[-1].boards[board_index].breaker_state
            assert state == final


class TestDeterminism:
    def test_rerun_is_byte_identical(self, comparison_small):
        spec = FleetScenarioSpec(boards=3, tenants=6)
        rerun = run_fleet_arm(spec, "shed-failover")
        assert rerun.to_json() == (
            comparison_small.healths["shed-failover"].to_json()
        )

    def test_arms_share_catalogue_independent_of_run_order(self):
        # arms computed concurrently (jobs=2) over one shared placement
        # cache must equal the serial pass with a cache per arm —
        # nothing in the gateway depends on global state or on which
        # arm filled the cache first
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        serial = {
            arm: run_fleet_arm(spec, arm, workloads=workloads,
                               boards=boards).to_json()
            for arm in FLEET_ARMS
        }
        shared = FleetScheduler(workloads, boards, seed=spec.seed)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                arm: pool.submit(run_fleet_arm, spec, arm,
                                 workloads=workloads, boards=boards,
                                 scheduler=shared)
                for arm in reversed(FLEET_ARMS)
            }
            threaded = {
                arm: f.result().to_json() for arm, f in futures.items()
            }
        assert serial == threaded

    def test_shared_scheduler_must_match_the_seed(self):
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6, seed=1)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        with pytest.raises(ConfigurationError):
            run_fleet_arm(
                spec, "static", workloads=workloads, boards=boards,
                scheduler=FleetScheduler(workloads, boards, seed=0),
            )

    def test_seed_changes_the_run(self, comparison_small):
        other = run_fleet_arm(
            FleetScenarioSpec(boards=3, tenants=6, seed=1), "shed-failover"
        )
        assert other.to_json() != (
            comparison_small.healths["shed-failover"].to_json()
        )


class TestHealthReport:
    def test_roundtrip_and_finite(self, comparison_small):
        throttled = run_fleet_arm(
            FleetScenarioSpec(boards=3, tenants=6, scenario="board-throttle"),
            "shed-failover",
        )
        reports = [comparison_small.healths[arm] for arm in FLEET_ARMS]
        for health in reports + [throttled]:
            assert verify_fleet_health(json.loads(health.to_json())) == []
            restored = from_record(FleetHealth, json.loads(health.to_json()))
            assert restored == health
            assert restored.schema_version == 2
        # the Optional fields round-trip both null and set
        boards = [b for w in throttled.windows for b in w.boards]
        tenants = [t for h in reports for w in h.windows for t in w.tenants]
        events = [e for h in reports for e in h.events]
        for values in (
            [b.throttled_mhz for b in boards],
            [t.board_index for t in tenants],
            [e.tenant_id for e in events],
            [e.board_index for e in events],
        ):
            assert None in values
            assert any(value is not None for value in values)

    def test_flt_invariants_hold(self, comparison_small):
        for arm in FLEET_ARMS:
            payload = json.loads(comparison_small.healths[arm].to_json())
            assert verify_fleet_health(payload) == []

    def test_flt001_catches_a_planted_violation(self, comparison_small):
        payload = json.loads(
            comparison_small.healths["static"].to_json()
        )
        # plant: a tenant left running on a board marked dead
        window = payload["windows"][-1]
        dead = [b for b in window["boards"] if not b["alive"]]
        running = [
            t for t in window["tenants"] if t["state"] == "running"
        ]
        assert dead and running
        running[0]["board_index"] = dead[0]["board_index"]
        findings = verify_fleet_health(payload)
        assert any(f.code == "FLT001" for f in findings)

    @pytest.mark.parametrize("edge, expected", [
        # departs from a state the board is not in
        ("half-open->open", "at 'closed' but transition departs from "
                            "'half-open'"),
        # an edge the state machine does not have
        ("closed->half-open", "illegal breaker transition "
                              "closed->half-open"),
    ], ids=["broken-chain", "illegal-edge"])
    def test_flt003_catches_a_planted_breaker_trace(
        self, comparison_small, edge, expected
    ):
        payload = json.loads(
            comparison_small.healths["shed-failover"].to_json()
        )
        first = next(e for e in payload["events"] if e["kind"] == "breaker")
        assert first["detail"].startswith("closed->open")
        first["detail"] = edge + first["detail"][len("closed->open"):]
        findings = verify_fleet_health(payload)
        assert any(
            f.code == "FLT003" and expected in f.message for f in findings
        ), findings

    def test_flt005_catches_an_oversized_retry(self, comparison_small):
        payload = json.loads(comparison_small.healths["shed"].to_json())
        requeues = [
            e for e in payload["events"]
            if e["kind"] == "shed" and "retry in" in e["detail"]
        ]
        assert requeues, "the shed arm must requeue with backoff"
        for delay in ("99.0", "1.2.3"):  # too long, and not a number
            requeues[0]["detail"] = (
                f"board dead; requeued, retry in {delay} windows"
            )
            findings = verify_fleet_health(payload)
            assert any(f.code == "FLT005" for f in findings)


#: (case, planted defect, text the rejection must carry — the path)
_SCHEMA_DEFECTS = [
    ("breaker-state",
     lambda p: p["windows"][0]["boards"][0].update(breaker_state="ajar"),
     "windows[0].boards[0].breaker_state: unknown value 'ajar'"),
    ("tenant-state",
     lambda p: p["windows"][1]["tenants"][2].update(state="zombie"),
     "windows[1].tenants[2].state: unknown value 'zombie'"),
    ("event-kind",
     lambda p: p["events"][0].update(kind="teleport"),
     "events[0].kind: unknown value 'teleport'"),
    ("missing-field",
     lambda p: p["windows"][2]["boards"][1].pop("alive"),
     "windows[2].boards[1]: missing field 'alive'"),
    ("unexpected-field",
     lambda p: p["windows"][0]["tenants"][0].update(mood="sunny"),
     "windows[0].tenants[0]: unexpected field 'mood'"),
    ("nan-energy",
     lambda p: p["windows"][3].update(energy_uj=float("nan")),
     "windows[3].energy_uj: must be a finite number"),
    ("bool-as-int",
     lambda p: p["windows"][0]["boards"][0].update(rpc_failures=True),
     "windows[0].boards[0].rpc_failures: must be an integer"),
    ("empty-label",
     lambda p: p.update(label=""),
     "label: must be a non-empty string"),
]


class TestFleetSchema:
    @pytest.mark.parametrize(
        "plant, expected",
        [case[1:] for case in _SCHEMA_DEFECTS],
        ids=[case[0] for case in _SCHEMA_DEFECTS],
    )
    def test_planted_defect_rejected(
        self, comparison_small, plant, expected, tmp_path, capsys
    ):
        payload = json.loads(
            comparison_small.healths["shed-failover"].to_json()
        )
        assert verify_fleet_health(payload) == []
        plant(payload)
        findings = verify_fleet_health(payload)
        assert {f.code for f in findings} == {"HLT003"}
        assert any(expected in f.message for f in findings), findings
        # the CLI reads the report's kind from its content
        path = tmp_path / "fleet.health.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert verify_main([str(path)]) == 1
        assert expected in capsys.readouterr().out


class TestPlanSearchBudget:
    """Each plan search is paid for once per scenario."""

    def test_scenario_searches_each_tenant_kind_once(self, monkeypatch):
        # start from an empty context memo, so the scenario pays for
        # every search it needs
        monkeypatch.setattr(baselines, "_CONTEXTS", OrderedDict())
        cold = []
        # holding every counted graph keeps its id from being reused by
        # a later graph, which would look like a repeated search
        counted_graphs = []
        original = Scheduler.schedule

        def counting(self, *args, **kwargs):
            if kwargs.get("warm_start") is None:
                # a tenant's canonical graph is one object per scenario
                counted_graphs.append(self.model.graph)
                cold.append((id(self.model.graph), self.model.board.name))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "schedule", counting)
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6)
        run_fleet_scenario(spec)
        assert cold, "the scenario placed no tenant"
        assert len(cold) == len(set(cold))
        # one SLO-anchoring search per tenant on the reference board,
        # then at most one placement search per (tenant, kind)
        assert len(cold) <= spec.tenants * (1 + len(BOARD_KINDS))

    def test_controller_with_a_plan_runs_no_search(self, monkeypatch):
        boards = build_fleet(3)
        workloads = build_tenant_workloads(
            build_tenant_catalog(2, seed=0), seed=0
        )
        fleet = FleetScheduler(workloads, boards, seed=0)
        workload = workloads[0]
        plan = fleet.plan_estimate(workload.tenant_id, boards[0]).plan
        model = fleet.model(workload.tenant_id, boards[0])
        searches = []
        original = Scheduler.schedule

        def counting(self, *args, **kwargs):
            searches.append(self.model)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "schedule", counting)
        controller = SessionController(
            model,
            [workload.profile.mean_step_costs] * 4,
            workload.spec.batch_bytes,
            plan=plan,
        )
        assert searches == []
        assert controller.plan == plan

    def test_schedulers_share_each_tenant_kind_search(self, monkeypatch):
        # two schedulers over one catalogue (two scenarios' worth) search
        # each (tenant, kind) once and hand out the same objects
        monkeypatch.setattr(baselines, "_CONTEXTS", OrderedDict())
        boards = build_fleet(3)
        workloads = build_tenant_workloads(
            build_tenant_catalog(2, seed=0), seed=0
        )
        searches = []
        original = Scheduler.schedule

        def counting(self, *args, **kwargs):
            searches.append(self.model.board.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "schedule", counting)
        keys = [(w.tenant_id, board) for w in workloads for board in boards]

        def place_all():
            fleet = FleetScheduler(workloads, boards, seed=0)
            return [
                (fleet.canonical_graph(tenant),
                 fleet.plan_estimate(tenant, board))
                for tenant, board in keys
            ]

        first, second = place_all(), place_all()
        assert len(searches) == len(workloads) * len(BOARD_KINDS)
        assert all(
            graph is first_graph and estimate is first_estimate
            for (graph, estimate), (first_graph, first_estimate)
            in zip(second, first)
        )
