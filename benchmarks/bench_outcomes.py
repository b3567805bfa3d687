"""Outcome records: adaptive control, chaos recovery and fleet serving.

Runs the adaptive-vs-static drift sessions and the chaos recovery
sessions on two boards, plus the fleet capacity sweep (static vs
shedding vs shedding+failover under a board crash, 3- and 6-board
fleets), and writes their simulated outcomes to ``BENCH_outcomes.json``.
Every number in the record is a pure function of the code, so a rerun
writes the same bytes and ``git diff`` on the record shows exactly
which outcomes a change moved. Host time is measured elsewhere, by the
end-to-end benchmark in ``benchmarks/e2e``. Run standalone::

    PYTHONPATH=src python benchmarks/bench_outcomes.py

or via pytest (``pytest benchmarks/bench_outcomes.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.bench.harness import Harness

#: drift scenarios the record tracks, one adaptive-vs-static
#: session per (board, scenario) cell (see repro.datasets.DRIFT_KINDS)
BENCH_DRIFT_SCENARIOS = ("ramp", "burst", "phase-shift")


def bench_adaptive_drift(boards=("rk3399", "jetson_tx2_like")):
    """Per-board adaptive-vs-static outcomes on drifting workloads.

    Runs one :func:`repro.control.run_adaptive_session` per
    (board, drift scenario) cell and records both arms' energy and
    violation counts plus the controller's replan/adoption/warm-start
    activity — so the record tracks how the online control loop
    fares on the little.BIG boards beyond the reference rk3399.
    """
    from repro.control import ControllerConfig, SessionSpec, run_adaptive_session
    from repro.simcore import boards as board_module

    per_board = {}
    for board_name in boards:
        board = getattr(board_module, board_name)()
        harness = Harness(board=board, cache=None)
        per_board[board_name] = {}
        for scenario in BENCH_DRIFT_SCENARIOS:
            # L_set left unset: each board's session default
            # (repro.control.session.ADAPT_L_SET)
            spec = SessionSpec(
                scenario=scenario,
                controller=ControllerConfig(horizon_windows=4),
            )
            comparison = run_adaptive_session(harness, spec)
            outcome = {
                "static_energy_uj_per_byte": round(
                    comparison.static_energy_uj_per_byte, 6
                ),
                "adaptive_energy_uj_per_byte": round(
                    comparison.adaptive_energy_uj_per_byte, 6
                ),
                "energy_saving": round(comparison.energy_saving, 4),
                "static_steady_violations": (
                    comparison.static_steady_violations
                ),
                "adaptive_steady_violations": (
                    comparison.adaptive_steady_violations
                ),
                "replans": comparison.adaptive.replans,
                "plans_adopted": comparison.adaptive.plans_adopted,
                "warm_start_hits": comparison.warm_start_hits,
            }
            per_board[board_name][scenario] = outcome
            print(
                f"adapt {board_name}/{scenario}: energy "
                f"{outcome['static_energy_uj_per_byte']:.4f} -> "
                f"{outcome['adaptive_energy_uj_per_byte']:.4f} µJ/byte "
                f"({outcome['energy_saving']:.1%} saving, "
                f"{outcome['replans']} replans, "
                f"{outcome['plans_adopted']} adopted, steady violations "
                f"{outcome['static_steady_violations']} -> "
                f"{outcome['adaptive_steady_violations']})"
            )
    return per_board


#: chaos scenarios the record tracks: the heartbeat-driven
#: failover (core-failure) plus the two signal-free faults that only
#: the residual ledger can attribute; corruption runs at an elevated
#: probability so the retry load dominates the window
BENCH_CHAOS_SCENARIOS = (
    ("core-failure", {}),
    ("interconnect", {}),
    ("corruption", {"corruption_probability": 0.6}),
)


def bench_chaos_recovery(boards=("rk3399", "jetson_tx2_like")):
    """Per-board recovery under injected faults, heartbeat or not.

    Runs the :data:`BENCH_CHAOS_SCENARIOS` grid (see
    :mod:`repro.faults.chaos`) on each board and records, per cell, the
    recovery latency the adaptive controller achieves, the steady-state
    violation counts of both arms, and the residual ledger's dominant
    attribution — the component the health report pins the fault on.
    ``core-failure`` exercises the heartbeat failover path;
    ``interconnect`` and ``corruption`` emit no heartbeat and are only
    recoverable through residual diagnosis.
    """
    from repro.faults.chaos import ChaosSpec, run_chaos_session
    from repro.simcore import boards as board_module

    per_board = {}
    for board_name in boards:
        board = getattr(board_module, board_name)()
        harness = Harness(
            board=board,
            repetitions=1,
            batches_per_repetition=18,
            profile_batches=3,
            cache=None,
        )
        per_board[board_name] = {}
        for scenario, overrides in BENCH_CHAOS_SCENARIOS:
            comparison = run_chaos_session(
                harness,
                ChaosSpec(scenario=scenario, batch_bytes=8192, **overrides),
            )
            recovery = comparison.adaptive_recovery_us
            dominant = None
            if comparison.health is not None:
                attribution = comparison.health.dominant()
                if attribution is not None:
                    dominant = {
                        "kind": attribution.kind,
                        "key": attribution.key,
                        "score": round(attribution.score, 2),
                        "confidence": round(attribution.confidence, 2),
                    }
            outcome = {
                "victim_core": comparison.victim_core,
                "static_steady_violations": (
                    comparison.static_steady_violations
                ),
                "adaptive_steady_violations": (
                    comparison.adaptive_steady_violations
                ),
                "adaptive_recovery_ms": (
                    round(recovery / 1000.0, 2)
                    if recovery is not None else None
                ),
                "static_recovers": comparison.static_recovery_us is not None,
                "dominant_attribution": dominant,
            }
            if overrides:
                outcome["spec_overrides"] = dict(overrides)
            per_board[board_name][scenario] = outcome
            culprit = (
                f"{dominant['kind']}:{dominant['key']}"
                if dominant else "none"
            )
            print(
                f"chaos {board_name}/{scenario}: static "
                f"{outcome['static_steady_violations']} vs adaptive "
                f"{outcome['adaptive_steady_violations']} steady "
                f"violations, recovery "
                f"{outcome['adaptive_recovery_ms']} ms, "
                f"attribution {culprit}"
            )
    return per_board


def bench_fleet_capacity():
    """Per-fleet-size serving outcomes under a board crash.

    Reads the three gateway arms (static admission, +shedding,
    +breaker+failover) of every (boards, tenants) cell of
    :func:`repro.bench.exp_fleet.fleet_capacity` and records
    admissions, violations, shed/failover activity and the
    crash→re-placement lag — the serving tier's graceful degradation
    alongside the single-session control loop.
    """
    from repro.bench.exp_fleet import fleet_capacity

    per_size = {}
    summaries = fleet_capacity().extras["summaries"]
    for (boards, tenants, arm), summary in summaries.items():
        entry = per_size.setdefault(
            f"{boards}x{tenants}",
            {"boards": boards, "tenants": tenants, "arms": {}},
        )
        entry["arms"][arm] = {
            "tenants_admitted": summary.tenants_admitted,
            "tenants_rejected": summary.tenants_rejected,
            "total_violations": summary.total_violations,
            "steady_violations": summary.steady_violations,
            "sheds": summary.sheds,
            "failovers": summary.failovers,
            "failover_lag_windows": summary.failover_lag_windows,
            "energy_uj": round(summary.energy_uj, 2),
        }
    for size_label, entry in per_size.items():
        static = entry["arms"]["static"]
        failover = entry["arms"]["shed-failover"]
        print(
            f"fleet {size_label}: steady violations static "
            f"{static['steady_violations']} vs shed-failover "
            f"{failover['steady_violations']}, "
            f"{failover['failovers']} failovers, lag "
            f"{failover['failover_lag_windows']} windows"
        )
    return per_size


def run_outcomes(output):
    record = {
        "bench": "outcomes",
        "adaptive": bench_adaptive_drift(),
        "chaos": bench_chaos_recovery(),
        "fleet": bench_fleet_capacity(),
    }
    with open(output, "w") as sink:
        json.dump(record, sink, indent=2)
        sink.write("\n")
    print(f"wrote {output}")
    return record


def test_outcomes():
    """Pytest entry: every outcome, written to a temp record."""
    with tempfile.TemporaryDirectory() as scratch:
        record = run_outcomes(os.path.join(scratch, "BENCH_outcomes.json"))
    # the chaos section tracks per-board, per-scenario recovery: under
    # the heartbeat fault (core-failure) every board's adaptive arm
    # must recover (finite latency) and end with strictly fewer
    # steady-state violations than the static plan
    for board_name, outcomes in record["chaos"].items():
        failure = outcomes["core-failure"]
        assert failure["adaptive_recovery_ms"] is not None, board_name
        assert (
            failure["adaptive_steady_violations"]
            < failure["static_steady_violations"]
        ), board_name
        # the signal-free faults never leave the adaptive arm worse off
        for scenario in ("interconnect", "corruption"):
            outcome = outcomes[scenario]
            assert (
                outcome["adaptive_steady_violations"]
                <= outcome["static_steady_violations"]
            ), (board_name, scenario)
    # the adaptive section tracks the control loop per board: every
    # (board, drift) cell ran, replanned at least once, and never left
    # the adaptive arm with more steady-state violations than static
    for board_name, outcomes in record["adaptive"].items():
        assert set(outcomes) == set(BENCH_DRIFT_SCENARIOS), board_name
        for scenario, outcome in outcomes.items():
            assert outcome["replans"] >= 1, (board_name, scenario)
            assert outcome["adaptive_energy_uj_per_byte"] > 0
            assert (
                outcome["adaptive_steady_violations"]
                <= outcome["static_steady_violations"]
            ), (board_name, scenario)
    # the fleet section tracks the serving tier's graceful degradation:
    # on every fleet size the breaker+failover arm must re-place the
    # crashed board's victims within 3 windows and end with at most 25%
    # of the static arm's steady-state violations
    for size_label, outcome in record["fleet"].items():
        static = outcome["arms"]["static"]
        failover = outcome["arms"]["shed-failover"]
        assert failover["failovers"] >= 1, size_label
        assert failover["failover_lag_windows"] is not None, size_label
        assert failover["failover_lag_windows"] <= 3, size_label
        assert (
            failover["steady_violations"]
            <= 0.25 * static["steady_violations"]
        ), size_label
        # shedding alone already beats stranding victims forever
        shed = outcome["arms"]["shed"]
        assert (
            shed["steady_violations"] < static["steady_violations"]
        ), size_label
    # on the reference board the phase shift is drastic enough that
    # adaptation must convert detection into a strict win on both axes
    rk_shift = record["adaptive"]["rk3399"]["phase-shift"]
    assert (
        rk_shift["adaptive_steady_violations"]
        < rk_shift["static_steady_violations"]
    )
    assert rk_shift["energy_saving"] > 0
    # signal-free faults emit no heartbeat — the residual ledger must
    # name the right component, and on the reference board the
    # diagnosis replan must convert detection into a strict win
    rk = record["chaos"]["rk3399"]
    assert rk["interconnect"]["dominant_attribution"]["kind"] == "path"
    assert rk["corruption"]["dominant_attribution"]["kind"] == "retry"
    assert (
        rk["interconnect"]["adaptive_steady_violations"]
        < rk["interconnect"]["static_steady_violations"]
    )
    assert (
        rk["corruption"]["adaptive_steady_violations"]
        < rk["corruption"]["static_steady_violations"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_outcomes.json")
    args = parser.parse_args(argv)
    run_outcomes(args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
