"""Command-line interface."""

import json

import numpy as np
import pytest

from repro.analysis.verify import main as verify_main
from repro.cli import main


@pytest.fixture
def sample_file(tmp_path, rng):
    path = tmp_path / "input.bin"
    path.write_bytes(rng.integers(0, 1000, 4096, dtype=np.uint32).tobytes())
    return path


class TestCompressDecompress:
    def test_round_trip(self, tmp_path, sample_file, capsys):
        compressed = tmp_path / "out.cz"
        restored = tmp_path / "back.bin"
        assert main(
            ["compress", "tcomp32", str(sample_file), str(compressed)]
        ) == 0
        assert main(
            ["decompress", "tcomp32", str(compressed), str(restored)]
        ) == 0
        assert restored.read_bytes() == sample_file.read_bytes()
        output = capsys.readouterr().out
        assert "frames" in output and "ratio" in output

    def test_partial_word_tail_padded(self, tmp_path, capsys):
        source = tmp_path / "odd.bin"
        source.write_bytes(b"\x01\x02\x03\x04\x05")  # 5 bytes
        compressed = tmp_path / "odd.cz"
        restored = tmp_path / "odd.back"
        main(["compress", "tcomp32", str(source), str(compressed)])
        main(["decompress", "tcomp32", str(compressed), str(restored)])
        back = restored.read_bytes()
        assert back.startswith(source.read_bytes())
        assert len(back) == 8  # padded to the next word

    def test_stateful_codec_round_trip(self, tmp_path, sample_file):
        compressed = tmp_path / "out.tz"
        restored = tmp_path / "back.bin"
        main(["compress", "tdic32", str(sample_file), str(compressed)])
        main(["decompress", "tdic32", str(compressed), str(restored)])
        assert restored.read_bytes() == sample_file.read_bytes()

    def test_missing_input_is_error_not_traceback(self, tmp_path, capsys):
        code = main(
            ["compress", "lz4", str(tmp_path / "nope"), str(tmp_path / "o")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_codec_on_decompress_fails_cleanly(
        self, tmp_path, sample_file, capsys
    ):
        compressed = tmp_path / "out.cz"
        main(["compress", "tdic32", str(sample_file), str(compressed)])
        code = main(
            ["decompress", "tcomp32", str(compressed), str(tmp_path / "x")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPlanAndSimulate:
    def test_plan_prints_chart(self, capsys):
        assert main(
            ["plan", "tcomp32", "rovio", "--batch-bytes", "8192"]
        ) == 0
        output = capsys.readouterr().out
        assert "decomposition:  t0[s0+s1] -> t1[s2]" in output
        assert "bottleneck" in output
        assert "core 4" in output

    def test_plan_on_jetson(self, capsys):
        assert main(
            ["plan", "tdic32", "stock", "--board", "jetson",
             "--batch-bytes", "8192"]
        ) == 0
        assert "Jetson" in capsys.readouterr().out

    def test_simulate_reports_metrics(self, capsys):
        assert main(
            ["simulate", "tcomp32", "rovio", "--repetitions", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "energy" in output and "CLCV" in output

    def test_simulate_baseline_mechanism(self, capsys):
        assert main(
            ["simulate", "tcomp32", "rovio", "--mechanism", "LO",
             "--repetitions", "3"]
        ) == 0


class TestBoards:
    def test_lists_both_boards(self, capsys):
        assert main(["boards"]) == 0
        output = capsys.readouterr().out
        assert "rk3399" in output and "jetson" in output


class TestBench:
    def test_listing_forwarded(self, capsys):
        assert main(["bench"]) == 0
        output = capsys.readouterr().out
        assert "fig7" in output and "abl_guard" in output

    def test_experiment_with_jobs_and_cache(self, tmp_path, capsys):
        assert main(
            [
                "bench", "fig17",
                "--repetitions", "2",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "break-down" in output
        assert "cache:" in output
        # Second invocation is served entirely from the persistent cache.
        assert main(
            [
                "bench", "fig17",
                "--repetitions", "2",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        assert "4 hits / 4 lookups" in capsys.readouterr().out


class TestServe:
    def test_compare_prints_all_arms_and_writes_health(
        self, tmp_path, capsys
    ):
        health_path = tmp_path / "fleet.json"
        assert main(
            [
                "serve", "--compare", "--windows", "8",
                "--health-out", str(health_path),
            ]
        ) == 0
        output = capsys.readouterr().out
        for arm in ("static", "shed ", "shed-failover"):
            assert arm in output
        assert "failovers=1" in output
        payload = health_path.read_text()
        assert '"schema_version": 2' in payload

    def test_top_renders_fleet_report(self, tmp_path, capsys):
        health_path = tmp_path / "fleet.json"
        prom_path = tmp_path / "fleet.prom"
        main(
            [
                "serve", "--arm", "shed-failover", "--windows", "8",
                "--health-out", str(health_path),
            ]
        )
        capsys.readouterr()
        assert main(
            ["top", str(health_path), "--prom", str(prom_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "breaker" in output
        assert "DEAD" in output  # the crashed board
        assert "tenant-0" in output
        prom = prom_path.read_text()
        assert "cstream_fleet_board_alive" in prom
        assert "cstream_fleet_tenant_l_set_us_per_byte" in prom

    def test_top_renders_compact_fleet_report(self, tmp_path, capsys):
        health_path = tmp_path / "fleet.json"
        main(
            [
                "serve", "--arm", "shed-failover", "--windows", "6",
                "--health-out", str(health_path),
            ]
        )
        capsys.readouterr()
        pretty = health_path.read_text()
        assert main(["top", str(health_path)]) == 0
        expected = capsys.readouterr().out
        # the same report without whitespace is still a valid v2 report
        health_path.write_text(
            json.dumps(json.loads(pretty), separators=(",", ":"))
        )
        assert verify_main([str(health_path)]) == 0
        capsys.readouterr()
        assert main(["top", str(health_path)]) == 0
        assert capsys.readouterr().out == expected

    def test_serve_top_flag_prints_dashboard(self, capsys):
        assert main(
            ["serve", "--arm", "static", "--windows", "6", "--top"]
        ) == 0
        output = capsys.readouterr().out
        assert "window 5" in output
        assert "rk3399-0" in output

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--scenario", "meteor-strike"])


class TestTopArguments:
    """``top`` rejects a window limit below 1 and a poll interval that
    is not positive at parse time, before it reads the health file."""

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_rejected(self, tmp_path, capsys, limit):
        with pytest.raises(SystemExit) as exit_info:
            main(["top", str(tmp_path / "absent.json"), "--limit", limit])
        assert exit_info.value.code == 2
        assert "--limit" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["0", "-1.5"])
    def test_non_positive_interval_rejected(self, tmp_path, capsys, interval):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "top", str(tmp_path / "absent.json"),
                    "--follow", "--interval", interval,
                ]
            )
        assert exit_info.value.code == 2
        assert "--interval" in capsys.readouterr().err


def _window(index):
    return {
        "window_index": index,
        "measured_latency_us_per_byte": 24.0,
        "predicted_latency_us_per_byte": 20.0,
        "latency_residual_us_per_byte": 4.0,
        "measured_energy_uj_per_byte": 0.4,
        "predicted_energy_uj_per_byte": 0.35,
        "energy_residual_uj_per_byte": 0.05,
        "components": [{"kind": "path", "key": "c1",
                        "residual_us_per_byte": 3.5, "score": 9.0}],
        "unattributed_us_per_byte": 0.5,
        "violated": True,
        "anomalous": True,
        "attribution": {"kind": "path", "key": "c1", "score": 9.0,
                        "residual_us_per_byte": 3.5, "confidence": 1.0},
    }


class TestTopDispatch:
    """``top`` reads the report's kind from its content, the way the
    artifact checker does."""

    def test_session_report_with_prometheus(self, tmp_path, capsys):
        path = tmp_path / "session.json"
        path.write_text(json.dumps({
            "schema_version": 1, "label": "chaos:interconnect",
            "board": "rk3399", "latency_constraint_us_per_byte": 33.0,
            "windows": [_window(0), _window(1)],
        }))
        prom = tmp_path / "session.prom"
        assert main(["top", str(path), "--prom", str(prom)]) == 0
        assert "degraded link c1" in capsys.readouterr().out
        assert 'cstream_windows_total{session="chaos:interconnect"} 2' in (
            prom.read_text()
        )

    def test_one_line_tail(self, tmp_path, capsys):
        path = tmp_path / "health.ndjson"
        path.write_text(json.dumps(_window(3)) + "\n")
        assert main(["top", str(path)]) == 0
        assert "windows=1 violated=1" in capsys.readouterr().out

    def test_trace_is_not_a_health_report(self, tmp_path, capsys):
        path = tmp_path / "cell.trace.json"
        path.write_text('{"traceEvents": []}')
        assert main(["top", str(path)]) == 1
        assert "is a trace, not a health report" in capsys.readouterr().err


class TestAdaptDefaults:
    def test_jetson_gets_its_own_default_l_set(self, capsys):
        assert main(
            ["adapt", "--board", "jetson", "--batches", "6"]
        ) == 0
        output = capsys.readouterr().out
        assert "L_set=8.0" in output
        assert "Jetson" in output

    def test_rk3399_default_unchanged(self, capsys):
        assert main(["adapt", "--batches", "6"]) == 0
        output = capsys.readouterr().out
        assert "L_set=20.0" in output

    def test_explicit_constraint_wins(self, capsys):
        assert main(
            [
                "adapt", "--board", "jetson", "--batches", "6",
                "--latency-constraint", "11.5",
            ]
        ) == 0
        assert "L_set=11.5" in capsys.readouterr().out
