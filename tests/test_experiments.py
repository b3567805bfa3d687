"""Every experiment regenerates its table/figure with the paper's shape.

These are the reproduction's acceptance tests (DESIGN.md's expected
shapes), run at reduced repetition counts on a shared small harness.
"""

import pytest

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.exp_endtoend import (
    fig05_state_sharing,
    fig07_energy,
    fig08_clcv,
    fig09_adaptivity,
)
from repro.bench.exp_microbench import (
    fig03_roofline,
    tab02_interconnect,
    tab04_task_comparison,
    tab05_model_accuracy,
)
from repro.bench.exp_sensitivity import (
    fig10_latency_constraint,
    fig11_batch_size,
    fig13_symbol_duplication,
    fig14_dynamic_range,
)
from repro.bench.exp_system import (
    fig15_static_frequency,
    fig16_dvfs,
    fig17_breakdown,
)
from repro.core.baselines import MECHANISM_NAMES

REPS = 6


class TestRegistry:
    def test_registry_size(self):
        # 16 paper items + 5 reproduction ablations + adaptive loop
        # + chaos recovery + the fork-join decompression grid
        # + the fleet capacity sweep.
        assert len(EXPERIMENTS) == 25

    def test_every_paper_item_present(self):
        expected = {
            "fig3", "tab2", "fig5", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "tab4", "tab5",
        }
        assert expected <= set(EXPERIMENTS)
        extras = (
            set(EXPERIMENTS) - expected
            - {"adaptive", "chaos", "dag", "fleet"}
        )
        assert all(name.startswith("abl_") for name in extras)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFig3:
    def test_roofline_rows_and_markers(self, small_harness):
        result = fig03_roofline(small_harness)
        assert result.headers[0] == "kappa"
        assert len(result.rows) > 10
        markers = result.extras["step_kappas"]
        assert markers["s1"] > markers["s2"] > markers["s0"]

    def test_little_eta_dip_visible(self, small_harness):
        result = fig03_roofline(small_harness, kappa_step=10)
        kappas = [row[0] for row in result.rows]
        little = [float(row[2]) for row in result.rows]
        at = {k: v for k, v in zip(kappas, little)}
        assert at[35] > at[65]


class TestTab2:
    def test_paper_values(self, small_harness):
        result = tab02_interconnect(small_harness)
        assert len(result.rows) == 3
        bandwidths = [float(row[1].split()[0]) for row in result.rows]
        assert bandwidths[0] > bandwidths[1] > bandwidths[2]
        latencies = [float(row[2].split()[0]) for row in result.rows]
        assert latencies[0] < latencies[1] < latencies[2]


class TestFig5:
    def test_private_state_wins(self, small_harness):
        result = fig05_state_sharing(small_harness, repetitions=REPS)
        assert result.extras["energy_saving"] > 0.15
        assert result.extras["latency_saving"] > 0.3
        assert 0.0 < result.extras["ratio_loss"] < 0.3


class TestFig7And8:
    def test_cstream_always_lowest_energy(self, small_harness):
        """CStream is lowest on every workload (a ~2% statistical
        tolerance covers borderline-feasible plans that a baseline runs
        and gets lucky on while CStream conservatively rejects them)."""
        result = fig07_energy(small_harness, repetitions=REPS)
        for row in result.rows:
            energies = [float(cell) for cell in row[1:]]
            assert energies[0] <= min(energies) * 1.02, row

    def test_meaningful_savings(self, small_harness):
        result = fig07_energy(small_harness, repetitions=REPS)
        assert max(result.extras["savings"].values()) > 0.4

    def test_cstream_never_violates(self, small_harness):
        result = fig08_clcv(small_harness, repetitions=REPS)
        for row in result.rows:
            assert float(row[1]) == 0.0, row

    def test_little_only_violates_somewhere(self, small_harness):
        result = fig08_clcv(small_harness, repetitions=REPS)
        lo = [float(row[-1]) for row in result.rows]
        assert max(lo) > 0.5


class TestFig9:
    def test_adaptation_story(self, small_harness):
        """Judged on steady batches: a window's first batch pays the
        drain barrier in both arms."""
        result = fig09_adaptivity(small_harness)
        without = [b for b in result.extras["without"] if b["steady"]]
        with_reg = [b for b in result.extras["with"] if b["steady"]]
        # Before the change (batch 5) neither violates.
        assert not any(b["violated"] for b in without + with_reg
                       if b["batch"] < 5)
        # After the change the unregulated run violates every batch.
        assert all(b["violated"] for b in without if b["batch"] >= 5)
        # The PID converges after Eq 8's three observations; the
        # controller adopts at window 2, so the new plan runs from 9...
        adoptions = [
            (event.window_index, event.reason)
            for event in result.extras["events"]
            if event.adopted
        ]
        assert adoptions == [(2, "constraint-rescue")]
        # ...and meets L_set from then on, at higher energy than before
        # the change.
        recovered = [b for b in with_reg if b["batch"] >= 9]
        assert recovered and not any(b["violated"] for b in recovered)
        before = max(b["energy"] for b in with_reg if b["batch"] < 5)
        assert all(b["energy"] > before for b in recovered)


class TestFig10:
    def test_cstream_energy_decreases_with_looser_lset(self, small_harness):
        result = fig10_latency_constraint(small_harness, repetitions=REPS)
        values = result.extras["values"]
        constraints = sorted({key[0] for key in values if key[2] == "E"})
        series = [values[(c, "CStream", "E")] for c in constraints]
        assert series[-1] <= series[0]
        assert all(values[(c, "CStream", "CLCV")] == 0 for c in constraints)

    def test_cs_fails_tightest(self, small_harness):
        result = fig10_latency_constraint(small_harness, repetitions=REPS)
        values = result.extras["values"]
        assert values[(11.0, "CS", "CLCV")] > 0.5
        assert values[(26.0, "CS", "CLCV")] == 0.0


class TestFig11:
    def test_energy_flat_for_large_batches(self, small_harness):
        result = fig11_batch_size(small_harness, repetitions=REPS)
        values = result.extras["values"]
        large = [values[(b, "CStream")] for b in (8192, 32768, 131072)]
        assert max(large) - min(large) < 0.05 * min(large)

    def test_tiny_batches_cost_more(self, small_harness):
        result = fig11_batch_size(
            small_harness, repetitions=REPS, batch_sizes=(512, 65536)
        )
        values = result.extras["values"]
        assert values[(512, "CStream")] > values[(65536, "CStream")]


class TestFig13:
    def test_bo_gains_with_duplication(self, small_harness):
        result = fig13_symbol_duplication(small_harness, repetitions=REPS)
        values = result.extras["values"]
        assert values[(0.8, "BO")] < values[(0.0, "BO")]

    def test_cstream_always_best(self, small_harness):
        result = fig13_symbol_duplication(small_harness, repetitions=REPS)
        for row in result.rows:
            energies = [float(cell) for cell in row[1:]]
            assert energies[0] <= min(energies) * 1.05


class TestFig14:
    def test_energy_grows_with_range(self, small_harness):
        result = fig14_dynamic_range(small_harness, repetitions=REPS)
        values = result.extras["values"]
        assert values[("2^30", "CStream")] > values[("2^4", "CStream")]

    def test_cstream_never_above_alternatives(self, small_harness):
        result = fig14_dynamic_range(small_harness, repetitions=REPS)
        values = result.extras["values"]
        labels = {key[0] for key in values}
        for label in labels:
            others = [
                values[(label, m)] for m in MECHANISM_NAMES if m != "CStream"
            ]
            assert values[(label, "CStream")] <= min(others) * 1.05


class TestFig15:
    def test_lowest_frequency_not_lowest_energy(self, small_harness):
        result = fig15_static_frequency(small_harness, repetitions=REPS)
        values = result.extras["values"]
        assert values[("B600/L600", "CStream")] > values[
            ("B1008/L1008", "CStream")
        ]

    def test_cstream_best_at_every_frequency(self, small_harness):
        result = fig15_static_frequency(small_harness, repetitions=REPS)
        for row in result.rows:
            energies = [float(cell) for cell in row[1:]]
            assert energies[0] <= min(energies) * 1.001, row


class TestFig16:
    def test_governor_ordering(self, small_harness):
        result = fig16_dvfs(small_harness, repetitions=REPS)
        values = result.extras["values"]
        conservative = values[("conservative", "CStream", "E")]
        default = values[("default", "CStream", "E")]
        ondemand = values[("ondemand", "CStream", "E")]
        assert conservative < default < ondemand

    def test_cstream_zero_clcv_all_governors(self, small_harness):
        result = fig16_dvfs(small_harness, repetitions=REPS)
        values = result.extras["values"]
        for governor in ("default", "conservative", "ondemand"):
            assert values[(governor, "CStream", "CLCV")] == 0.0


class TestFig17:
    def test_breakdown_ordering(self, small_harness):
        result = fig17_breakdown(small_harness, repetitions=REPS)
        values = result.extras["values"]
        assert values["simple"]["E"] > values["+decom."]["E"]
        assert values["+decom."]["E"] > values["+asy-comp."]["E"]
        assert values["+asy-comp."]["CLCV"] > 0.5
        assert values["+asy-comm."]["CLCV"] == 0.0
        # Full CStream lands near the comp-aware energy, without the
        # violations.
        assert values["+asy-comm."]["E"] < values["+decom."]["E"]


class TestTab4:
    def test_rows_and_kappa_anchors(self, small_harness):
        result = tab04_task_comparison(small_harness)
        names = [row[0] for row in result.rows]
        assert names == ["t0", "t1", "t_all", "t_re x2"]
        kappa = {row[0]: float(row[1]) for row in result.rows}
        assert 280 < kappa["t0"] < 360
        assert 90 < kappa["t1"] < 115
        assert kappa["t1"] < kappa["t_all"] < kappa["t0"]

    def test_replication_overhead_visible(self, small_harness):
        result = tab04_task_comparison(small_harness)
        by_name = {row[0]: row for row in result.rows}
        # t_re×2 halves latency but costs more total energy than t_all.
        assert float(by_name["t_re x2"][2]) < float(by_name["t_all"][2])
        assert float(by_name["t_re x2"][4]) > float(by_name["t_all"][4])


class TestTab5:
    def test_model_accuracy(self, small_harness):
        result = tab05_model_accuracy(small_harness, repetitions=REPS)
        for codec, extras in result.extras.items():
            assert extras["relative_error_latency"] < 0.15, codec
            assert extras["relative_error_energy"] < 0.20, codec
