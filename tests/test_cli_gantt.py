"""CLI Gantt flag and remaining command paths."""

import pytest

from repro.cli import main


class TestSimulateGantt:
    def test_gantt_printed(self, capsys):
        assert main(
            ["simulate", "tcomp32", "rovio", "--repetitions", "2", "--gantt"]
        ) == 0
        output = capsys.readouterr().out
        assert "core 0" in output and "core 5" in output
        assert "ms" in output  # timeline footer

    def test_gantt_shows_plan_cores_busy(self, capsys):
        main(["simulate", "tcomp32", "rovio", "--repetitions", "2", "--gantt"])
        output = capsys.readouterr().out
        gantt_lines = [
            line for line in output.splitlines() if line.startswith("core")
        ]
        busy = [line for line in gantt_lines if any(d in line for d in "0123")]
        assert len(busy) >= 2  # at least the two pipeline stages


#: the Gantt charts ``cstream simulate CODEC rovio --gantt`` printed when
#: the executor kept its own span lists; drawn from the trace recorder
#: they must stay the same text
PINNED_GANTT = {
    "tcomp32": (
        "core 0 (little) |........0000000000000111111111111122222222222223333333333333444444444444|\n"
        "core 1 (little) |........................................................................|\n"
        "core 2 (little) |........................................................................|\n"
        "core 3 (little) |........................................................................|\n"
        "core 4 (big   ) |000000011111112222222333333333...44444444...............................|\n"
        "core 5 (big   ) |........................................................................|\n"
        "                 0 ···························································· 8964.0 ms"
    ),
    "unlz4": (
        "core 0 (little) |0000000000111111111112222222222233333333333444444444444.................|\n"
        "core 1 (little) |............00000000...11111111..222222222..33333333...44444444.........|\n"
        "core 2 (little) |......................0000000...11111111...22222222...33333333...4444444|\n"
        "core 3 (little) |........................................................................|\n"
        "core 4 (big   ) |........................................................................|\n"
        "core 5 (big   ) |........................................................................|\n"
        "                 0 ···························································· 2923.8 ms"
    ),
}


class TestPinnedGantt:
    @pytest.mark.parametrize("codec", sorted(PINNED_GANTT))
    def test_chart_text_unchanged(self, codec, capsys):
        assert main(
            ["simulate", codec, "rovio", "--repetitions", "2", "--gantt"]
        ) == 0
        chart = capsys.readouterr().out.split("\n\n", 1)[1]
        assert chart.rstrip("\n") == PINNED_GANTT[codec]
