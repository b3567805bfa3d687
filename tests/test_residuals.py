"""Residual ledger unit tests: collector slicing, breakdown, scoring.

End-to-end detection (chaos scenarios ending in a named culprit) lives
in ``test_chaos.py``; here the ledger math is pinned down on small
hand-checkable fakes — the HLT001 sum property, EWMA warmup, the
zero-baseline rule for components that appear mid-session, and
bit-exact determinism across ledger instances.
"""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.obs.residuals import (
    ResidualLedger,
    TelemetryCollector,
    WindowTelemetry,
    predicted_breakdown,
)
from repro.obs.residuals import _stage_of


# -- fakes -------------------------------------------------------------------


class _Path:
    def __init__(self, value):
        self.value = value


class _Table:
    _UNIT = {"local": 0.0, "c1": 0.01}
    _OVERHEAD = {"local": 0.0, "c1": 5.0}

    def unit_cost(self, path):
        return self._UNIT[path.value]

    def overhead(self, path):
        return self._OVERHEAD[path.value]


class _Board:
    def path_between(self, producer, consumer):
        return _Path("local" if producer == consumer else "c1")


class _Model:
    profile = SimpleNamespace(batch_size_bytes=1000)
    board = _Board()
    communication = _Table()

    @staticmethod
    def stage_output_bytes(stage_index):
        return 500.0


def _estimate(latency=3.0):
    return SimpleNamespace(
        task_estimates=[
            SimpleNamespace(
                core_id=0, l_comp_us_per_byte=2.0, energy_uj_per_byte=0.5
            ),
            SimpleNamespace(
                core_id=1, l_comp_us_per_byte=1.0, energy_uj_per_byte=0.25
            ),
        ],
        latency_us_per_byte=latency,
    )


_PLAN = SimpleNamespace(assignments=((0,), (0, 1)))


def _telemetry(window_index, batch_start, retry_us=(), comm_extra=0.0):
    return WindowTelemetry(
        window_index=window_index,
        batch_start=batch_start,
        batch_count=2,
        batch_bytes=1000,
        busy_us=(((0, 0), 4200.0), ((1, 1), 2100.0)),
        energy_uj=((0, 1100.0), (1, 560.0)),
        comm_us=(("c1", 15.0 + comm_extra), ("local", 0.0)),
        retry_us=tuple(retry_us),
        retries=tuple((batch_start, 2) for _ in retry_us),
    )


# -- collector ---------------------------------------------------------------


class _FakeServer:
    def __init__(self):
        self.spans = []
        self.energy_by_batch = {}


def test_collector_slices_spans_incrementally():
    collector = TelemetryCollector()
    server = _FakeServer()
    server.spans = [("s0r0", 0, 0.0, 10.0), ("s0r0", 1, 10.0, 25.0)]
    server.energy_by_batch = {0: 3.0, 1: 4.0}
    first = collector.collect_window(0, 0, 2, 100, {0: server})
    assert dict(first.busy_us) == {(0, 0): 25.0}
    assert dict(first.energy_uj) == {0: 7.0}

    # New spans/energy only; the previous window's spans are not
    # recounted and out-of-window energy is excluded.
    server.spans.append(("s1r0", 2, 25.0, 31.0))
    server.energy_by_batch[2] = 5.0
    second = collector.collect_window(1, 2, 1, 100, {0: server})
    assert dict(second.busy_us) == {(1, 0): 6.0}
    assert dict(second.energy_uj) == {0: 5.0}
    assert [w.window_index for w in collector.windows] == [0, 1]


def test_collector_drains_hook_accumulators():
    collector = TelemetryCollector()
    collector.comm("c1", 7.5, batch_index=0)
    collector.comm("c1", 2.5, batch_index=1)
    collector.retry(1, 2, 40.0, attempts=3)
    window = collector.collect_window(0, 0, 2, 100, {})
    assert dict(window.comm_us) == {"c1": 10.0}
    assert dict(window.retry_us) == {2: 40.0}
    assert window.retries == ((1, 3),)
    # Drained: the next window starts from zero.
    empty = collector.collect_window(1, 2, 2, 100, {})
    assert empty.comm_us == ()
    assert empty.retry_us == ()


def test_stage_label_parsing():
    assert _stage_of("s2r1") == 2
    assert _stage_of("s10r0") == 10
    assert _stage_of("junk") == -1


# -- predicted breakdown -----------------------------------------------------


def test_predicted_breakdown_matches_hand_computation():
    comp, comm, energy = predicted_breakdown(_PLAN, _estimate(), _Model())
    assert comp == {0: 2.0, 1: 1.0}
    assert energy == {0: 0.5, 1: 0.25}
    # Stage 1: 500 output bytes / 2 consumers / 1 producer = 250-byte
    # share; the cross-cluster hop pays 250 * 0.01 + 5.0 = 7.5 µs,
    # normalized by the 1000-byte batch.
    assert comm["c1"] == pytest.approx(7.5 / 1000.0)
    assert comm["local"] == pytest.approx(0.0)


# -- ledger ------------------------------------------------------------------


def test_ledger_components_sum_to_window_residual():
    ledger = ResidualLedger()
    window = ledger.observe(_telemetry(0, 0), 3.4, _PLAN, _estimate(), _Model())
    attributed = math.fsum(
        c.residual_us_per_byte for c in window.components
    )
    assert window.latency_residual_us_per_byte == pytest.approx(0.4)
    assert attributed + window.unattributed_us_per_byte == pytest.approx(
        window.latency_residual_us_per_byte, abs=1e-12
    )


def test_ledger_warmup_window_never_scores():
    ledger = ResidualLedger()
    window = ledger.observe(
        _telemetry(0, 0, retry_us=((1, 9000.0),)),
        8.0, _PLAN, _estimate(), _Model(),
    )
    assert all(c.score == 0.0 for c in window.components)


def test_ledger_scores_first_seen_component_against_zero_baseline():
    ledger = ResidualLedger()
    ledger.observe(_telemetry(0, 0), 3.4, _PLAN, _estimate(), _Model())
    # Retry time appears for the first time after warmup: it has no
    # baseline to hide behind, so its whole residual is anomalous.
    window = ledger.observe(
        _telemetry(1, 2, retry_us=((1, 9000.0),)),
        8.0, _PLAN, _estimate(), _Model(),
    )
    retry = [c for c in window.components if c.kind == "retry"]
    assert len(retry) == 1
    assert retry[0].key == "1"
    # 9000 µs / 2000 bytes = 4.5 µs/byte over a 0.06 µs/byte floor.
    assert retry[0].score > 3.0
    assert retry[0].score == pytest.approx(4.5 / 0.06, rel=1e-3)
    assert max(window.components, key=lambda c: c.score).kind == "retry"


def test_ledger_is_deterministic_across_instances():
    def run():
        ledger = ResidualLedger()
        out = []
        for index in range(4):
            retry = ((1, 500.0 * index),) if index >= 2 else ()
            window = ledger.observe(
                _telemetry(index, 2 * index, retry_us=retry),
                3.4 + 0.1 * index, _PLAN, _estimate(), _Model(),
            )
            out.append(tuple((c.kind, c.key, c.score)
                             for c in window.components))
        return out

    assert run() == run()


def test_ledger_config_validation():
    # the ledger has no settings left; what it still rejects is a window
    # that covers no bytes
    ledger = ResidualLedger()
    with pytest.raises(ConfigurationError):
        ledger.observe(
            WindowTelemetry(0, 0, 0, 1000, (), (), (), (), ()),
            1.0, _PLAN, _estimate(), _Model(),
        )


def test_health_report_is_independent_of_the_hash_seed(tmp_path):
    """The ledger walks the sets of path names it builds in sorted
    order, so the health report does not follow ``PYTHONHASHSEED``. An
    mltc interconnect session crosses three path classes."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    reports = []
    for seed in ("0", "1"):
        health = tmp_path / f"health-{seed}.ndjson"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--codec", "mltc",
             "--scenario", "interconnect", "--batches", "12",
             "--window", "3", "--fault-batch", "3",
             "--health-out", str(health)],
            env=env, check=True, capture_output=True,
        )
        reports.append(health.read_bytes())
    assert b'"key": "c2"' in reports[0]
    assert reports[0] == reports[1]
