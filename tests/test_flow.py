"""Tests for the whole-program flow pass (DET001-005, CSU001-003).

Structure mirrors ``test_analysis.py``: every rule gets a positive
fixture (the rule fires), a suppressed fixture (the comment grammar
silences it) and a clean fixture (the compliant spelling passes), all
against throwaway packages laid out like ``repro`` so the root-relative
entry points anchor identically. The suite also pins the acceptance
regression — a ``perf_counter()`` two call-hops outside the strict
packages that the per-file CSA linter provably misses — the exit-code
convention shared by the lint/flow/verify CLIs, the JSON report
round-trip, and dogfoods the pass against the real tree.
"""

from __future__ import annotations

import json
import os
import textwrap

import repro
from repro.analysis import callgraph, flow
from repro.analysis.flow import (
    FLOW_RULES,
    analyze,
    format_unit,
    parse_unit,
)
from repro.analysis.flow import main as flow_main
from repro.analysis.lint import lint_paths
from repro.analysis.lint import main as lint_main
from repro.analysis.verify import main as verify_main
from repro.cli import main as cli_main

REPRO_ROOT = os.path.dirname(repro.__file__)


def build_pkg(tmp_path, files):
    """Materialise a throwaway package shaped like ``repro``."""
    root = tmp_path / "pkg"
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(root)


def flow_codes(report):
    return sorted(finding.code for finding in report.findings)


#: an entry-point module: ``pkg.simcore.engine.Simulator.run`` anchors
#: the taint BFS exactly like the real simulator's run loop
ENGINE_CALLING = """
    from pkg.bench.helper import helper_a


    class Simulator:
        def run(self, until=None):
            return helper_a()
"""


# ---------------------------------------------------------------------------
# the acceptance regression: two hops outside the strict packages
# ---------------------------------------------------------------------------


class TestSeededTwoHopRegression:
    """A ``perf_counter()`` two call-hops outside ``simcore`` must be
    caught by the flow pass while CSA001 alone provably misses it."""

    FILES = {
        "simcore/engine.py": ENGINE_CALLING,
        "bench/helper.py": """
            from pkg.bench.deeper import helper_b


            def helper_a():
                return helper_b()
        """,
        "bench/deeper.py": """
            import time


            def helper_b():
                return time.perf_counter()
        """,
    }

    def test_csa_alone_misses_it(self, tmp_path):
        root = build_pkg(tmp_path, self.FILES)
        engine = os.path.join(root, "simcore", "engine.py")
        findings, _ = lint_paths([engine], package="simcore")
        assert findings == []

    def test_flow_catches_it_with_the_full_chain(self, tmp_path):
        root = build_pkg(tmp_path, self.FILES)
        report = analyze(root)
        assert flow_codes(report) == ["DET001"]
        (finding,) = report.findings
        assert finding.path.endswith(os.path.join("bench", "deeper.py"))
        assert "Simulator.run" in finding.chain[0]
        assert "helper_a" in finding.chain[1]
        assert "helper_b" in finding.chain[2]
        assert "entry point Simulator.run" in finding.message

    def test_chain_rendering(self, tmp_path):
        root = build_pkg(tmp_path, self.FILES)
        report = analyze(root)
        rendered = report.findings[0].format()
        lines = rendered.splitlines()
        assert "DET001" in lines[0]
        assert lines[1].startswith("       ")  # root hop, no arrow
        assert lines[2].lstrip().startswith("-> ")
        assert lines[3].lstrip().startswith("-> ")


# ---------------------------------------------------------------------------
# determinism taint rules
# ---------------------------------------------------------------------------


class TestDET001WallClock:
    def test_positive(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import time


                def helper_a():
                    return time.time()
            """,
        })
        assert flow_codes(analyze(root)) == ["DET001"]

    def test_det_ignore_suppresses(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import time


                def helper_a():
                    return time.time()  # det: ignore[DET001] — test stub
            """,
        })
        assert flow_codes(analyze(root)) == []

    def test_csa_ignore_also_counts(self, tmp_path):
        # A site the CSA linter was told to ignore is already audited;
        # flow must not re-flag it.
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import time


                def helper_a():
                    return time.time()  # csa: ignore[CSA001]
            """,
        })
        assert flow_codes(analyze(root)) == []

    def test_unreachable_source_is_clean(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                class Simulator:
                    def run(self, until=None):
                        return until
            """,
            "bench/helper.py": """
                import time


                def never_called():
                    return time.time()
            """,
        })
        assert flow_codes(analyze(root)) == []


class TestDET002Rng:
    def test_positive(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import random


                def helper_a():
                    return random.random()
            """,
        })
        assert flow_codes(analyze(root)) == ["DET002"]

    def test_suppressed(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import random


                def helper_a():
                    return random.random()  # det: ignore[DET002] — audited
            """,
        })
        assert flow_codes(analyze(root)) == []

    def test_seeded_rng_is_clean(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import random


                def helper_a():
                    return random.Random(42).random()
            """,
        })
        assert flow_codes(analyze(root)) == []


class TestDET003EnvRead:
    def test_positive(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import os


                def helper_a():
                    return os.environ.get("REPRO_DEBUG")
            """,
        })
        assert flow_codes(analyze(root)) == ["DET003"]

    def test_suppressed(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import os


                def helper_a():
                    return os.environ.get("X")  # det: ignore[DET003] — opt-in
            """,
        })
        assert flow_codes(analyze(root)) == []

    def test_explicit_argument_is_clean(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                from pkg.bench.helper import helper_a


                class Simulator:
                    def run(self, debug=False):
                        return helper_a(debug)
            """,
            "bench/helper.py": """
                def helper_a(debug):
                    return debug
            """,
        })
        assert flow_codes(analyze(root)) == []


class TestDET004IterationOrder:
    def test_positive(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                def helper_a():
                    total = 0
                    for value in {1, 2, 3}:
                        total += value
                    return total
            """,
        })
        assert flow_codes(analyze(root)) == ["DET004"]

    def test_suppressed(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                def helper_a():
                    total = 0
                    for value in {1, 2, 3}:  # det: ignore[DET004] — commutes
                        total += value
                    return total
            """,
        })
        assert flow_codes(analyze(root)) == []

    def test_sorted_iteration_is_clean(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                def helper_a():
                    total = 0
                    for value in sorted({1, 2, 3}):
                        total += value
                    return total
            """,
        })
        assert flow_codes(analyze(root)) == []


class TestDET005Contracts:
    def test_contract_cuts_the_chain(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                from pkg.bench.deeper import helper_b


                # det: pure — forwards to an audited helper, adds nothing
                def helper_a():
                    return helper_b()
            """,
            "bench/deeper.py": """
                import time


                def helper_b():
                    return time.perf_counter()
            """,
        })
        report = analyze(root)
        # The contract stops the entry-point taint; the clock inside
        # helper_b is still on the contract's audited subtree.
        assert flow_codes(report) == []
        (qualname,) = report.contracts
        assert qualname.endswith("helper_a")
        assert "audited helper" in report.contracts[qualname]
        assert any(
            node.endswith("helper_b")
            for node in report.contract_subtrees[qualname]
        )

    def test_direct_source_violates_the_contract(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import time


                # det: pure — wrong: the body reads the clock directly
                def helper_a():
                    return time.perf_counter()
            """,
        })
        report = analyze(root)
        assert flow_codes(report) == ["DET005"]
        assert "violated" in report.findings[0].message

    def test_missing_justification_is_a_finding(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                # det: pure
                def helper_a():
                    return 1
            """,
        })
        report = analyze(root)
        assert flow_codes(report) == ["DET005"]
        assert "justification" in report.findings[0].message


# ---------------------------------------------------------------------------
# unit consistency rules
# ---------------------------------------------------------------------------


def units_pkg(tmp_path, body):
    return build_pkg(tmp_path, {
        "core/units.py": body,
    })


class TestCSU001Addition:
    def test_positive(self, tmp_path):
        root = units_pkg(tmp_path, """
            def mix(latency_us, energy_uj):
                return latency_us + energy_uj
        """)
        assert flow_codes(analyze(root)) == ["CSU001"]

    def test_same_unit_is_clean(self, tmp_path):
        root = units_pkg(tmp_path, """
            def total(first_us, second_us):
                return first_us + second_us
        """)
        assert flow_codes(analyze(root)) == []

    def test_dimensional_product_is_clean(self, tmp_path):
        # µs × W = µJ — the algebra must simplify, not string-match.
        root = units_pkg(tmp_path, """
            def total(energy_uj, pause_us, power_w):
                return energy_uj + pause_us * power_w
        """)
        assert flow_codes(analyze(root)) == []

    def test_suppressed(self, tmp_path):
        root = units_pkg(tmp_path, """
            def mix(latency_us, energy_uj):
                return latency_us + energy_uj  # csu: ignore[CSU001]
        """)
        assert flow_codes(analyze(root)) == []

    def test_augmented_assignment(self, tmp_path):
        root = units_pkg(tmp_path, """
            def accumulate(total_us, energy_uj):
                total_us += energy_uj
                return total_us
        """)
        assert flow_codes(analyze(root)) == ["CSU001"]


class TestCSU002Comparison:
    def test_positive(self, tmp_path):
        root = units_pkg(tmp_path, """
            def over_budget(latency_us, budget_mj):
                return latency_us > budget_mj
        """)
        assert flow_codes(analyze(root)) == ["CSU002"]

    def test_scale_mismatch_of_same_dimension(self, tmp_path):
        # µs vs ms are both time but different scales: still a bug.
        root = units_pkg(tmp_path, """
            def late(latency_us, deadline_ms):
                return latency_us > deadline_ms
        """)
        assert flow_codes(analyze(root)) == ["CSU002"]

    def test_same_unit_is_clean(self, tmp_path):
        root = units_pkg(tmp_path, """
            def late(latency_us, deadline_us):
                return latency_us > deadline_us
        """)
        assert flow_codes(analyze(root)) == []

    def test_suppressed(self, tmp_path):
        root = units_pkg(tmp_path, """
            def over(latency_us, budget_mj):
                return latency_us > budget_mj  # csu: ignore[CSU002]
        """)
        assert flow_codes(analyze(root)) == []


class TestCSU003Binding:
    def test_assignment_positive(self, tmp_path):
        root = units_pkg(tmp_path, """
            def convert(latency_us):
                latency_ms = latency_us
                return latency_ms
        """)
        assert flow_codes(analyze(root)) == ["CSU003"]

    def test_explicit_conversion_is_clean(self, tmp_path):
        # Dividing by an unclassified literal is the conversion escape.
        root = units_pkg(tmp_path, """
            def convert(latency_us):
                latency_ms = latency_us / 1000.0
                return latency_ms
        """)
        assert flow_codes(analyze(root)) == []

    def test_return_against_function_name(self, tmp_path):
        root = units_pkg(tmp_path, """
            def window_ms(span_us):
                return span_us
        """)
        assert flow_codes(analyze(root)) == ["CSU003"]

    def test_call_argument_binding(self, tmp_path):
        root = units_pkg(tmp_path, """
            def advance(step_us):
                return step_us


            def caller(window_ms):
                return advance(window_ms)
        """)
        assert flow_codes(analyze(root)) == ["CSU003"]

    def test_matching_argument_is_clean(self, tmp_path):
        root = units_pkg(tmp_path, """
            def advance(step_us):
                return step_us


            def caller(window_us):
                return advance(window_us)
        """)
        assert flow_codes(analyze(root)) == []

    def test_suppressed(self, tmp_path):
        root = units_pkg(tmp_path, """
            def convert(latency_us):
                latency_ms = latency_us  # csu: ignore[CSU003]
                return latency_ms
        """)
        assert flow_codes(analyze(root)) == []

    def test_lenient_package_not_checked(self, tmp_path):
        # The unit checker only runs over strict packages.
        root = build_pkg(tmp_path, {
            "bench/units.py": """
                def convert(latency_us):
                    latency_ms = latency_us
                    return latency_ms
            """,
        })
        assert flow_codes(analyze(root)) == []


class TestUnitAlgebra:
    def test_atoms_and_stems(self):
        assert parse_unit("latency_us") == parse_unit("pause_us")
        assert parse_unit("latency_us") != parse_unit("latency_ms")
        assert parse_unit("us") is None  # bare atom needs a stem
        assert parse_unit("count") is None
        assert parse_unit(None) is None

    def test_plural_normalisation(self):
        assert parse_unit("batch_bytes") == parse_unit("payload_byte")

    def test_ratio_units(self):
        ratio = parse_unit("cost_uj_per_byte")
        assert ratio is not None
        assert format_unit(ratio) == "uj/byte"

    def test_time_times_power_is_energy(self):
        us = parse_unit("pause_us")
        watt = parse_unit("power_w")
        assert flow._combine(us, watt, divide=False) == parse_unit("x_uj")

    def test_frequency_is_inverse_time(self):
        hz = parse_unit("clock_hz")
        seconds = parse_unit("span_s")
        # Hz × s fully cancels: dimensionless -> unclassified (None).
        assert flow._combine(hz, seconds, divide=False) is None

    def test_format_round_trip_for_every_atom(self):
        for atom in flow._ATOMS:
            unit = parse_unit(f"value_{atom}")
            assert unit is not None
            assert format_unit(unit) == atom


# ---------------------------------------------------------------------------
# exit codes: lint / flow / verify / cstream analyze agree on 0/1/2
# ---------------------------------------------------------------------------


class TestExitCodeConvention:
    CLEAN = {
        "simcore/engine.py": """
            class Simulator:
                def run(self, until=None):
                    return until
        """,
    }
    DIRTY = TestSeededTwoHopRegression.FILES

    def test_flow_clean_vs_findings_vs_usage(self, tmp_path, capsys):
        clean = build_pkg(tmp_path / "clean", self.CLEAN)
        dirty = build_pkg(tmp_path / "dirty", self.DIRTY)
        assert flow_main([clean]) == 0
        assert flow_main([dirty]) == 1
        assert flow_main([dirty, "--json"]) == 1  # json mode: same status
        assert flow_main([str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_flow_unwritable_report_is_usage_error(self, tmp_path, capsys):
        clean = build_pkg(tmp_path, self.CLEAN)
        target = str(tmp_path / "no-such-dir" / "report.json")
        assert flow_main([clean, "--report", target]) == 2
        capsys.readouterr()

    def test_lint_clean_vs_findings_vs_usage(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        base = ["--package", "simcore"]
        assert lint_main([str(clean)] + base) == 0
        assert lint_main([str(dirty)] + base) == 1
        assert lint_main([str(dirty), "--json"] + base) == 1
        assert lint_main([str(tmp_path / "missing.py")] + base) == 2
        capsys.readouterr()

    def test_lint_unwritable_report_is_usage_error(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        target = str(tmp_path / "no-such-dir" / "report.json")
        assert lint_main([str(clean), "--report", target]) == 2
        capsys.readouterr()

    def test_verify_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "not-json.json"
        bad.write_text("{nope")
        assert verify_main([str(bad)]) == 2
        assert verify_main([str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_cstream_analyze_json_exits_one_on_findings(
        self, tmp_path, capsys
    ):
        # Strict scope is inferred from the path: the linter keys on a
        # `repro/<package>/` layout, so mirror it.
        strict = tmp_path / "repro" / "simcore" / "engine.py"
        strict.parent.mkdir(parents=True)
        strict.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        status_plain = cli_main(["analyze", str(strict)])
        status_json = cli_main(["analyze", str(strict), "--json"])
        assert status_plain == status_json == 1
        capsys.readouterr()

    def test_cstream_analyze_deep(self, tmp_path, capsys):
        dirty = build_pkg(tmp_path, self.DIRTY)
        report = tmp_path / "flow.json"
        status = cli_main([
            "analyze", dirty, "--json",
            "--deep-report", str(report),
        ])
        assert status == 1  # the two-hop clock is a --deep finding
        payload = json.loads(report.read_text())
        assert payload["counts"] == {"DET001": 1}
        capsys.readouterr()


# ---------------------------------------------------------------------------
# report round-trip
# ---------------------------------------------------------------------------


class TestReportAndCache:
    def test_json_report_round_trip(self, tmp_path):
        root = build_pkg(tmp_path, TestSeededTwoHopRegression.FILES)
        payload = analyze(root).payload()
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored["version"] == 1
        assert restored["rules"] == FLOW_RULES
        assert restored["counts"] == {"DET001": 1}
        assert [f["code"] for f in restored["findings"]] == ["DET001"]
        assert len(restored["findings"][0]["chain"]) == 3
        assert restored["entry_points"]


# ---------------------------------------------------------------------------
# call-graph construction details the taint pass depends on
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_unresolved_dynamic_call_lands_on_the_worklist(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                class Store:
                    def get(self):
                        return 1


                class Cache:
                    def get(self):
                        return 2


                class Simulator:
                    def run(self, backend):
                        return backend.get()
            """,
        })
        graph = callgraph.build_graph(root)
        ambiguous = [
            item for item in graph.worklist
            if item.chain[-1] == "get"
        ]
        assert ambiguous, "multi-candidate dispatch must be surfaced"
        assert sorted(ambiguous[0].candidates) == [
            "pkg.simcore.engine.Cache.get",
            "pkg.simcore.engine.Store.get",
        ]

    def test_single_candidate_duck_dispatch_resolves(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                import time


                class Ticker:
                    def on_window(self):
                        return time.perf_counter()


                class Simulator:
                    def run(self, controller):
                        return controller.on_window()
            """,
        })
        report = analyze(root)
        assert flow_codes(report) == ["DET001"]
        assert "Ticker.on_window" in report.findings[0].chain[-1]

    def test_finding_deduplicated_to_shortest_chain(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                import time
                from pkg.bench.helper import helper_a


                class Simulator:
                    def run(self):
                        helper_a()
                        return self.tick()

                    def tick(self):
                        return helper_a()
            """,
            "bench/helper.py": """
                import time


                def helper_a():
                    return time.time()
            """,
        })
        report = analyze(root)
        # One source line -> one finding, via the shortest chain.
        assert flow_codes(report) == ["DET001"]
        assert len(report.findings[0].chain) == 2


# ---------------------------------------------------------------------------
# dogfood: the real tree
# ---------------------------------------------------------------------------


class TestDogfood:
    def test_repo_is_flow_clean(self, capsys):
        assert flow_main([REPRO_ROOT]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_every_repo_contract_is_justified(self):
        report = analyze(REPRO_ROOT)
        for qualname, reason in report.contracts.items():
            assert reason, f"{qualname} carries an unjustified det: pure"

    def test_entry_points_anchor_in_the_real_tree(self):
        report = analyze(REPRO_ROOT)
        names = " ".join(report.entry_points)
        assert "Scheduler.schedule" in names
        assert "PipelineExecutor.run" in names
        assert "Simulator.run" in names
        assert "compress" in names
