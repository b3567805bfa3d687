"""The ``cstream trace`` subcommand."""

import json


from repro.analysis.verify import errors_only, verify_chrome_payload
from repro.cli import main


class TestTraceCommand:
    def test_cell_by_codec_dataset(self, tmp_path, capsys):
        out = tmp_path / "cell.trace.json"
        assert main([
            "trace", "tcomp32", "rovio",
            "--repetitions", "1", "--batch-bytes", "8192",
            "--out", str(out),
        ]) == 0
        output = capsys.readouterr().out
        assert "context switches/MB" in output
        assert "occupancy" in output
        with open(out) as source:
            assert errors_only(verify_chrome_payload(json.load(source))) == []

    def test_experiment_alias_and_gantt(self, tmp_path, capsys):
        out = tmp_path / "fig7.trace.json"
        assert main([
            "trace", "fig7",
            "--mechanism", "OS", "--governor", "ondemand",
            "--repetitions", "1", "--batch-bytes", "8192",
            "--out", str(out), "--gantt",
        ]) == 0
        output = capsys.readouterr().out
        assert "DVFS transitions" in output
        assert "core 0" in output  # gantt rows
        payload = json.loads(out.read_text())
        assert payload["otherData"]["context_switches_per_mb"] > 10_000

    def test_unknown_experiment_errors(self, tmp_path, capsys):
        assert main(["trace", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_too_many_targets_errors(self, capsys):
        assert main(["trace", "a", "b", "c"]) == 1
        capsys.readouterr()
