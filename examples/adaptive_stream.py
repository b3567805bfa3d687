"""Adapting to a drifting stream with PID feedback regulation (§V-D).

A tcomp32 pipeline is planned for narrow sensor values; mid-stream the
values' dynamic range jumps (a sensor fault, say) and the old plan
starts violating the latency constraint. The session controller runs
the incremental PID of Eq 8 as its drift detector: the PID recalibrates
the cost model against the measured latency, and once its calibration
converges the controller replans and migrates the pipeline.

Run:  python examples/adaptive_stream.py
"""

from repro.bench.harness import Harness
from repro.control import ControllerConfig, SessionSpec, run_adaptive_session

LATENCY_CONSTRAINT = 20.0
TOTAL_BATCHES = 15


def main() -> None:
    spec = SessionSpec(
        scenario="phase-shift",
        batches=TOTAL_BATCHES,
        latency_constraint=LATENCY_CONSTRAINT,
        controller=ControllerConfig(drift_detector="pid"),
    )
    comparison = run_adaptive_session(Harness(cache=None), spec)
    static, adaptive = comparison.static, comparison.adaptive
    print(f"initial plan: {adaptive.plan_descriptions[0]}")
    print(f"range {spec.low_range} -> {spec.high_range} at batch "
          f"{TOTAL_BATCHES // 3}, L_set {LATENCY_CONSTRAINT} µs/byte, "
          f"{spec.window_batches}-batch windows\n")

    print(f"{'batch':>5s} {'static':>10s} {'regulated':>10s}")
    for before, after in zip(static.batches, adaptive.batches):
        # A window's first batch pays the full pipeline traversal after
        # the drain barrier, in both runs alike.
        boundary = before.batch_index % spec.window_batches == 0
        print(
            f"{before.batch_index:5d} "
            f"{before.latency_us_per_byte:7.2f} µs "
            f"{after.latency_us_per_byte:7.2f} µs"
            f"{'  (window boundary)' if boundary else ''}"
            f"{'  VIOLATED' if after.violated and not boundary else ''}"
        )

    for event in comparison.controller_events:
        verdict = "adopted" if event.adopted else "kept the incumbent"
        print(f"\nwindow {event.window_index}: replanned, {verdict} "
              f"({event.reason})")
    print(f"final plan: {adaptive.final_plan_description}")
    print(
        "the PID detected the drift, spent a few batches calibrating the "
        "model's latency scale, and the controller moved the pipeline "
        "onto a plan that meets the constraint again."
    )


if __name__ == "__main__":
    main()
