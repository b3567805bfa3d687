"""Plan and Gantt rendering."""

import pytest

from repro.core.plan import SchedulingPlan
from repro.core.scheduler import Scheduler
from repro.obs.trace import TraceRecorder
from repro.runtime.visualize import render_plan


@pytest.fixture
def estimate(tcomp32_rovio_context):
    context = tcomp32_rovio_context
    model = context.cost_model(context.fine_graph)
    return Scheduler(model).schedule(best_effort=True).estimate


class TestRenderPlan:
    def test_every_core_listed(self, estimate, board):
        text = render_plan(estimate, board)
        for core in board.cores:
            assert f"core {core.core_id}" in text

    def test_idle_cores_marked(self, estimate, board):
        text = render_plan(estimate, board)
        assert "idle" in text

    def test_bottleneck_marked_once(self, estimate, board):
        text = render_plan(estimate, board)
        assert text.count("<- bottleneck") == 1

    def test_summary_line(self, estimate, board):
        text = render_plan(estimate, board)
        assert "L_est=" in text and "E_est=" in text

    def test_task_names_visible(self, estimate, board):
        text = render_plan(estimate, board)
        assert "t0" in text and "t1" in text

    def test_colocated_tasks_share_a_bar(self, tcomp32_rovio_context, board):
        context = tcomp32_rovio_context
        model = context.cost_model(context.fine_graph)
        plan = SchedulingPlan(
            graph=context.fine_graph, assignments=((4,), (4,))
        )
        text = render_plan(model.evaluate(plan), board)
        core4_line = next(
            line for line in text.splitlines() if line.startswith("core 4")
        )
        assert "t0" in core4_line and "t1" in core4_line


class TestRenderGantt:
    @pytest.fixture
    def recorder(self, tcomp32_rovio_context, board):
        from repro.runtime.executor import ExecutionConfig, PipelineExecutor
        from repro.core.scheduler import Scheduler

        context = tcomp32_rovio_context
        model = context.cost_model(context.fine_graph)
        plan = Scheduler(model).schedule(best_effort=True).plan
        recorder = TraceRecorder()
        executor = PipelineExecutor(
            board,
            ExecutionConfig(
                latency_constraint_us_per_byte=26.0,
                repetitions=1,
                batches_per_repetition=4,
            ),
            trace=recorder,
        )
        executor.run(
            plan,
            context.profile.per_batch_step_costs,
            context.profile.batch_size_bytes,
        )
        return recorder

    @pytest.fixture
    def trace(self, recorder):
        """``{core: [(start, end), ...]}`` of the recorder's task spans."""
        spans = {}
        for event in recorder.events:
            if event.category == "task" and event.name != "ctx-switch":
                spans.setdefault(event.tid, []).append(
                    (event.ts_us, event.ts_us + event.dur_us)
                )
        return spans

    def test_empty_trace(self, board):
        from repro.runtime.visualize import render_gantt

        assert render_gantt(TraceRecorder(), board) == "(empty trace)"

    def test_every_core_row(self, recorder, board):
        from repro.runtime.visualize import render_gantt

        text = render_gantt(recorder, board)
        for core in board.cores:
            assert f"core {core.core_id}" in text

    def test_batches_visible(self, recorder, board):
        from repro.runtime.visualize import render_gantt

        text = render_gantt(recorder, board)
        for digit in "0123":
            assert digit in text

    def test_trace_spans_consistent(self, trace):
        for spans in trace.values():
            for start, end in spans:
                assert end >= start >= 0.0

    def test_busy_cores_match_plan(self, trace):
        busy = {core for core, spans in trace.items() if spans}
        assert busy == {0, 4}  # t0@big(4), t1@little(0)
