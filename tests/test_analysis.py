"""Tests for the determinism and unit linter and the plan/trace verifier.

Every lint rule gets a positive fixture (the rule fires), a suppressed
fixture (``# csa: ignore[...]`` silences it) and a clean fixture (the
compliant spelling passes); multi-file fixtures are laid out as a
throwaway ``repro`` tree so the strict scope is inferred from the path
exactly as for the real package. Each defect of the linter's mutation
study is a fixture too. Every verifier invariant gets a seeded
violation. The suite also dogfoods both tools against the real tree: the
linter must be clean on ``src/repro`` and the verifier must accept a
real traced run.
"""

from __future__ import annotations

import ast
import io
import json
import os
import textwrap
import tokenize

import pytest

import repro
from repro.analysis import lint
from repro.analysis.lint import (
    DRIVER_PACKAGES,
    RULES,
    format_unit,
    lint_paths,
    lint_source,
    parse_unit,
    report_payload,
)
from repro.analysis.lint import main as lint_main
from repro.analysis.verify import (
    INVARIANTS,
    errors_only,
    verify_chrome_payload,
    verify_health,
    verify_plan,
    verify_trace_events,
)
from repro.analysis.verify import main as verify_main
from repro.cli import main as cli_main
from repro.core.plan import SchedulingPlan
from repro.core.scheduler import Scheduler
from repro.core.task import Task, TaskGraph
from repro.errors import InvariantViolationError
from repro.numerics import ordered_sum
from tests.trace_oracle import recorder_events

REPRO_ROOT = os.path.dirname(repro.__file__)


def codes(findings):
    return [f.code for f in findings]


def lint_strict(source):
    """Lint a snippet as if it lived in a strict package."""
    return lint_source(source, path="snippet.py", package="simcore")


def lint_lenient(source):
    """Lint a snippet as if it lived in a driver package."""
    return lint_source(source, path="snippet.py", package="bench")


# ---------------------------------------------------------------------------
# linter rules
# ---------------------------------------------------------------------------


class TestCSA001WallClock:
    def test_positive(self):
        found = lint_strict("import time\nnow = time.time()\n")
        assert codes(found) == ["CSA001"]

    def test_aliased_import(self):
        found = lint_strict(
            "from time import perf_counter as pc\nstart = pc()\n"
        )
        assert codes(found) == ["CSA001"]

    def test_datetime_now(self):
        found = lint_strict(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )
        assert codes(found) == ["CSA001"]

    def test_suppressed(self):
        found = lint_strict(
            "import time\n"
            "now = time.time()  # csa: ignore[CSA001]\n"
        )
        assert found == []

    def test_clean_in_lenient_package(self):
        assert lint_lenient("import time\nnow = time.time()\n") == []

    def test_clean_simulated_clock(self):
        assert lint_strict("now = simulator.now()\n") == []


class TestCSA002Randomness:
    def test_global_random(self):
        found = lint_strict("import random\nx = random.random()\n")
        assert codes(found) == ["CSA002"]

    def test_applies_everywhere(self):
        found = lint_lenient("import random\nx = random.random()\n")
        assert codes(found) == ["CSA002"]

    def test_unseeded_default_rng(self):
        found = lint_strict(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert codes(found) == ["CSA002"]

    def test_seeded_default_rng_clean(self):
        assert lint_strict(
            "def build(seed):\n"
            "    import numpy as np\n"
            "    return np.random.default_rng(seed)\n"
        ) == []

    def test_legacy_numpy_global(self):
        found = lint_strict(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert codes(found) == ["CSA002"]

    def test_entropy_sources(self):
        found = lint_strict(
            "import os\nimport uuid\n"
            "a = os.urandom(8)\nb = uuid.uuid4()\n"
        )
        assert codes(found) == ["CSA002", "CSA002"]

    def test_suppressed(self):
        assert lint_strict(
            "import random\n"
            "x = random.random()  # csa: ignore[CSA002]\n"
        ) == []


class TestCSA003SetIteration:
    def test_set_literal(self):
        found = lint_strict("for x in {1, 2, 3}:\n    pass\n")
        assert codes(found) == ["CSA003"]

    def test_set_call_result(self):
        found = lint_strict(
            "cores = set(plan)\nfor c in cores:\n    pass\n"
        )
        assert codes(found) == ["CSA003"]

    def test_set_annotated_argument(self):
        found = lint_strict(
            "from typing import Set\n"
            "def run(stages: Set[int]):\n"
            "    for s in stages:\n"
            "        pass\n"
        )
        assert codes(found) == ["CSA003"]

    def test_comprehension_over_set(self):
        found = lint_strict("xs = [x for x in {1, 2}]\n")
        assert codes(found) == ["CSA003"]

    def test_sorted_is_clean(self):
        assert lint_strict(
            "for x in sorted({3, 1, 2}):\n    pass\n"
        ) == []

    def test_order_insensitive_consumers_clean(self):
        assert lint_strict("n = len({1, 2})\nm = max({1, 2})\n") == []

    def test_lenient_package_clean(self):
        assert lint_lenient("for x in {1, 2}:\n    pass\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "for x in {1, 2}:  # csa: ignore[CSA003]\n    pass\n"
        ) == []


class TestCSA004MutableDefault:
    def test_list_default(self):
        found = lint_strict("def f(xs=[]):\n    pass\n")
        assert codes(found) == ["CSA004"]

    def test_dict_and_factory_defaults(self):
        found = lint_lenient(
            "from collections import defaultdict\n"
            "def f(a={}, b=defaultdict(list)):\n    pass\n"
        )
        assert codes(found) == ["CSA004", "CSA004"]

    def test_keyword_only_default(self):
        found = lint_strict("def f(*, xs=set()):\n    pass\n")
        assert codes(found) == ["CSA004"]

    def test_immutable_defaults_clean(self):
        assert lint_strict(
            "def f(a=(), b=None, c='x', d=0):\n    pass\n"
        ) == []

    def test_suppressed(self):
        assert lint_strict(
            "def f(xs=[]):  # csa: ignore[CSA004]\n    pass\n"
        ) == []


class TestCSA005UnorderedAccumulation:
    def test_energy_sum(self):
        found = lint_strict("total = sum(energies)\n")
        assert codes(found) == ["CSA005"]

    def test_attribute_quantity(self):
        found = lint_strict(
            "total = sum(e.energy_uj_per_byte for e in estimates)\n"
        )
        assert codes(found) == ["CSA005"]

    def test_latency_values(self):
        found = lint_strict("total = sum(latency_by_core.values())\n")
        assert codes(found) == ["CSA005"]

    def test_non_quantity_sum_clean(self):
        assert lint_strict("count = sum(batch_counts)\n") == []

    def test_ordered_sum_clean(self):
        assert lint_strict(
            "from repro.numerics import ordered_sum\n"
            "total = ordered_sum(energies)\n"
        ) == []

    def test_lenient_package_clean(self):
        assert lint_lenient("total = sum(energies)\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "total = sum(energies)  # csa: ignore[CSA005]\n"
        ) == []


class TestCSA006UnguardedTraceHook:
    def test_unguarded_hook(self):
        found = lint_strict("trace.span('t0', 0, 0.0, 1.0)\n")
        assert codes(found) == ["CSA006"]

    def test_unguarded_attribute_receiver(self):
        found = lint_strict(
            "def f(self):\n"
            "    self.trace.energy_sample('busy', 1.0, 0.0)\n"
        )
        assert codes(found) == ["CSA006"]

    def test_guarded_hook_clean(self):
        assert lint_strict(
            "if trace is not None:\n"
            "    trace.span('t0', 0, 0.0, 1.0)\n"
        ) == []

    def test_guarded_attribute_clean(self):
        assert lint_strict(
            "def f(self):\n"
            "    if self.trace is not None:\n"
            "        self.trace.migration(0, 1.0)\n"
        ) == []

    def test_truthiness_guard_clean(self):
        assert lint_strict(
            "if recorder:\n"
            "    recorder.batch_complete(0, 1.0)\n"
        ) == []

    def test_wrong_guard_still_fires(self):
        found = lint_strict(
            "if other is not None:\n"
            "    trace.span('t0', 0, 0.0, 1.0)\n"
        )
        assert codes(found) == ["CSA006"]

    def test_non_recorder_receiver_clean(self):
        # `span`-named methods on non-trace objects are not hooks
        assert lint_strict("window.span('x', 1, 2, 3)\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "trace.span('t0', 0, 0.0, 1.0)  # csa: ignore[CSA006]\n"
        ) == []


class TestCSA007EnvironmentRead:
    def test_environ(self):
        found = lint_strict("import os\nflag = os.environ['X']\n")
        assert codes(found) == ["CSA007"]

    def test_getenv(self):
        found = lint_strict("import os\nflag = os.getenv('X')\n")
        assert codes(found) == ["CSA007"]

    def test_lenient_package_clean(self):
        assert lint_lenient("import os\nflag = os.getenv('X')\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "import os\n"
            "flag = os.getenv('X')  # csa: ignore[CSA007]\n"
        ) == []


class TestCSA008FilesystemOrder:
    def test_listdir(self):
        found = lint_strict("import os\nnames = os.listdir('.')\n")
        assert codes(found) == ["CSA008"]

    def test_applies_everywhere(self):
        found = lint_lenient("import os\nnames = os.listdir('.')\n")
        assert codes(found) == ["CSA008"]

    def test_path_glob(self):
        found = lint_lenient("files = directory.glob('*.pkl')\n")
        assert codes(found) == ["CSA008"]

    def test_sorted_listing_clean(self):
        assert lint_lenient(
            "import os\nnames = sorted(os.listdir('.'))\n"
        ) == []

    def test_order_insensitive_count_clean(self):
        assert lint_lenient(
            "count = sum(1 for _ in directory.glob('*.pkl'))\n"
        ) == []

    def test_re_match_not_confused(self):
        # re.match objects aren't filesystem globs
        assert lint_lenient(
            "import re\nhit = re.compile('x').match('xy')\n"
        ) == []

    def test_suppressed(self):
        assert lint_lenient(
            "import os\n"
            "names = os.listdir('.')  # csa: ignore[CSA008]\n"
        ) == []


class TestCSA009UnguardedTelemetryHook:
    def test_unguarded_hook(self):
        found = lint_strict("telemetry.comm('c1', 7.5, 0)\n")
        assert codes(found) == ["CSA009"]

    def test_unguarded_attribute_receiver(self):
        found = lint_strict(
            "def f(self):\n"
            "    self.collector.retry(0, 1, 40.0, 2)\n"
        )
        assert codes(found) == ["CSA009"]

    def test_guarded_hook_clean(self):
        assert lint_strict(
            "if telemetry is not None:\n"
            "    telemetry.comm('c1', 7.5, 0)\n"
        ) == []

    def test_guarded_attribute_clean(self):
        assert lint_strict(
            "def f(self):\n"
            "    if self.collector is not None:\n"
            "        self.collector.collect_window(0, 0, 3, 8192, {})\n"
        ) == []

    def test_wrong_guard_still_fires(self):
        found = lint_strict(
            "if other is not None:\n"
            "    telemetry.retry(0, 1, 40.0, 2)\n"
        )
        assert codes(found) == ["CSA009"]

    def test_non_telemetry_receiver_clean(self):
        # `retry`-named methods on non-telemetry objects are not hooks
        assert lint_strict("client.retry(0, 1, 40.0, 2)\n") == []

    def test_lenient_package_clean(self):
        assert lint_lenient("telemetry.comm('c1', 7.5, 0)\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "telemetry.comm('c1', 7.5, 0)  # csa: ignore[CSA009]\n"
        ) == []


class TestCSA010DriverImport:
    def test_from_import(self):
        found = lint_strict("from repro.bench.harness import Harness\n")
        assert codes(found) == ["CSA010"]

    def test_plain_import(self):
        found = lint_strict("import repro.cli\n")
        assert codes(found) == ["CSA010"]

    def test_package_import(self):
        assert codes(lint_strict("from repro import bench\n")) == ["CSA010"]
        assert codes(lint_strict("import repro.__main__\n")) == ["CSA010"]

    def test_lazy_import(self):
        found = lint_strict(
            "def run():\n"
            "    from repro.bench.harness import default_harness\n"
            "    return default_harness()\n"
        )
        assert codes(found) == ["CSA010"]
        assert found[0].line == 2

    def test_relative_import(self):
        found = lint_source(
            "from ..bench import harness\n",
            path=os.path.join("repro", "control", "session.py"),
        )
        assert codes(found) == ["CSA010"]

    def test_driver_may_import_driver(self):
        assert lint_lenient("from repro.bench.cache import ResultCache\n") == []

    def test_non_driver_imports_clean(self):
        assert lint_strict(
            "from repro.core.scheduler import Scheduler\n"
            "import repro.obs.trace\n"
            "from repro import numerics\n"
            "import benchmark\n"
        ) == []

    def test_suppressed(self):
        assert lint_strict(
            "from repro.bench.harness import WorkloadSpec"
            "  # csa: ignore[CSA010]\n"
        ) == []


class TestStrictScope:
    def test_driver_packages(self):
        assert DRIVER_PACKAGES == {"bench", "cli", "__main__"}

    def test_every_other_package_is_strict(self):
        clock = "import time\nnow = time.time()\n"
        for package in (
            "simcore", "core", "runtime", "compression", "fleet", "control",
            "faults", "obs", "datasets", "analysis", "numerics", "memo",
            "errors", "",
        ):
            found = lint_source(clock, path="snippet.py", package=package)
            assert codes(found) == ["CSA001"], package
        for package in sorted(DRIVER_PACKAGES):
            found = lint_source(clock, path="snippet.py", package=package)
            assert found == [], package

    def test_scope_inferred_from_path(self):
        clock = "import time\nnow = time.time()\n"

        def scoped(*parts):
            return codes(lint_source(clock, path=os.path.join("repro", *parts)))

        assert scoped("cli.py") == []
        assert scoped("__main__.py") == []
        assert scoped("bench", "harness.py") == []
        assert scoped("numerics.py") == ["CSA001"]
        assert scoped("control", "session.py") == ["CSA001"]
        assert scoped("analysis", "lint.py") == ["CSA001"]


def build_pkg(tmp_path, files):
    """Materialise a throwaway ``repro`` tree; returns its root."""
    root = tmp_path / "repro"
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(root)


def lint_tree(root):
    findings, _ = lint_paths([root])
    return findings


def where(findings, root):
    """``(relative path, line, code)`` of each finding."""
    return [
        (os.path.relpath(f.path, root), f.line, f.code) for f in findings
    ]


#: a strict entry module that reaches a driver helper by import
ENGINE_CALLING = """
    from repro.bench.helper import helper_a


    class Simulator:
        def run(self, until=None):
            return helper_a()
"""

ENGINE_PY = os.path.join("simcore", "engine.py")


class TestSeededTwoHopRegression:
    """A ``perf_counter()`` two call-hops away in driver code, reached
    from the simulator by import: the import itself is the finding."""

    FILES = {
        "simcore/engine.py": ENGINE_CALLING,
        "bench/helper.py": """
            from repro.bench.deeper import helper_b


            def helper_a():
                return helper_b()
        """,
        "bench/deeper.py": """
            import time


            def helper_b():
                return time.perf_counter()
        """,
    }

    def test_driver_helpers_keep_their_clock(self, tmp_path):
        root = build_pkg(tmp_path, self.FILES)
        findings, _ = lint_paths([os.path.join(root, "bench")])
        assert findings == []

    def test_csa010_fires_at_the_engine_import(self, tmp_path):
        root = build_pkg(tmp_path, self.FILES)
        assert where(lint_tree(root), root) == [(ENGINE_PY, 2, "CSA010")]

    def test_finding_names_the_driver_module(self, tmp_path):
        root = build_pkg(tmp_path, self.FILES)
        (finding,) = lint_tree(root)
        assert "repro.bench.helper" in finding.message
        assert finding.format().startswith(
            f"{os.path.join(root, ENGINE_PY)}:2:1: CSA010"
        )

    def test_passed_in_driver_object_is_not_seen(self, tmp_path):
        # The residual blind spot: strict code calling a method of a
        # driver object it was handed (not imported). The runtime digest
        # checks are what catch a value that leaks this way.
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                class Simulator:
                    def run(self, probe):
                        return probe.helper_a()
            """,
            "bench/helper.py": """
                import time


                class Probe:
                    def helper_a(self):
                        return time.perf_counter()
            """,
        })
        assert lint_tree(root) == []


class TestDriverReachability:
    """What reaching a nondeterminism source from the simulator looks
    like now: strict helpers are linted where the source is, driver
    helpers are cut off at the strict module's import."""

    def test_clock_behind_a_driver_import(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import time


                def helper_a():
                    return time.time()
            """,
        })
        assert where(lint_tree(root), root) == [(ENGINE_PY, 2, "CSA010")]

    def test_suppressed_import(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                # audited: the helper only formats a report
                from repro.bench.helper import helper_a  # csa: ignore[CSA010]
            """,
            "bench/helper.py": """
                def helper_a():
                    return 1
            """,
        })
        assert lint_tree(root) == []

    def test_suppressed_clock_in_strict_helper(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                from repro.core.helper import helper_a


                class Simulator:
                    def run(self, until=None):
                        return helper_a()
            """,
            "core/helper.py": """
                import time


                def helper_a():
                    return time.time()  # csa: ignore[CSA001]
            """,
        })
        assert lint_tree(root) == []

    def test_unimported_driver_clock_is_clean(self, tmp_path):
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
        assert lint_tree(root) == []

    def test_rng_behind_a_driver_import(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": ENGINE_CALLING,
            "bench/helper.py": """
                import random


                def helper_a():
                    return random.random()
            """,
        })
        assert where(lint_tree(root), root) == [
            (os.path.join("bench", "helper.py"), 6, "CSA002"),
            (ENGINE_PY, 2, "CSA010"),
        ]

    @staticmethod
    def strict_helper(tmp_path, body):
        """A simulator calling ``helper_a`` of a strict ``datasets``
        module with ``body``; returns the findings."""
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                from repro.datasets.helper import helper_a


                class Simulator:
                    def run(self, until=None):
                        return helper_a()
            """,
            "datasets/helper.py": body,
        })
        return codes(lint_tree(root))

    def test_suppressed_rng_in_strict_helper(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            import random


            def helper_a():
                return random.random()  # csa: ignore[CSA002]
        """) == []

    def test_seeded_rng_in_strict_helper_is_clean(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            import random


            def helper_a():
                return random.Random(42).random()
        """) == []

    def test_env_read_in_strict_helper(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            import os


            def helper_a():
                return os.environ.get("REPRO_DEBUG")
        """) == ["CSA007"]

    def test_suppressed_env_read_in_strict_helper(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            import os


            def helper_a():
                return os.environ.get("X")  # csa: ignore[CSA007]
        """) == []

    def test_explicit_argument_is_clean(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            def helper_a(debug=False):
                return debug
        """) == []

    def test_set_iteration_in_strict_helper(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            def helper_a():
                total = 0
                for value in {1, 2, 3}:
                    total += value
                return total
        """) == ["CSA003"]

    def test_suppressed_set_iteration_in_strict_helper(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            def helper_a():
                total = 0
                for value in {1, 2, 3}:  # csa: ignore[CSA003]
                    total += value
                return total
        """) == []

    def test_sorted_iteration_in_strict_helper_is_clean(self, tmp_path):
        assert self.strict_helper(tmp_path, """
            def helper_a():
                total = 0
                for value in sorted({1, 2, 3}):
                    total += value
                return total
        """) == []

    def test_clock_in_strict_method_flagged_where_it_is(self, tmp_path):
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
        assert where(lint_tree(root), root) == [(ENGINE_PY, 7, "CSA001")]

    def test_one_finding_per_import_however_many_calls(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/engine.py": """
                from repro.bench.helper import helper_a


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
        assert where(lint_tree(root), root) == [(ENGINE_PY, 2, "CSA010")]


# ---------------------------------------------------------------------------
# unit consistency rules
# ---------------------------------------------------------------------------


def unit_codes(body, package="core"):
    return codes(
        lint_source(textwrap.dedent(body), path="units.py", package=package)
    )


class TestCSU001Addition:
    def test_positive(self):
        assert unit_codes("""
            def mix(latency_us, energy_uj):
                return latency_us + energy_uj
        """) == ["CSU001"]

    def test_same_unit_is_clean(self):
        assert unit_codes("""
            def total(first_us, second_us):
                return first_us + second_us
        """) == []

    def test_dimensional_product_is_clean(self):
        # µs × W = µJ — the algebra must simplify, not string-match.
        assert unit_codes("""
            def total(energy_uj, pause_us, power_w):
                return energy_uj + pause_us * power_w
        """) == []

    def test_suppressed(self):
        assert unit_codes("""
            def mix(latency_us, energy_uj):
                return latency_us + energy_uj  # csa: ignore[CSU001]
        """) == []

    def test_augmented_assignment(self):
        assert unit_codes("""
            def accumulate(total_us, energy_uj):
                total_us += energy_uj
                return total_us
        """) == ["CSU001"]


class TestCSU002Comparison:
    def test_positive(self):
        assert unit_codes("""
            def over_budget(latency_us, budget_mj):
                return latency_us > budget_mj
        """) == ["CSU002"]

    def test_scale_mismatch_of_same_dimension(self):
        # µs vs ms are both time but different scales: still a bug.
        assert unit_codes("""
            def late(latency_us, deadline_ms):
                return latency_us > deadline_ms
        """) == ["CSU002"]

    def test_same_unit_is_clean(self):
        assert unit_codes("""
            def late(latency_us, deadline_us):
                return latency_us > deadline_us
        """) == []

    def test_suppressed(self):
        assert unit_codes("""
            def over(latency_us, budget_mj):
                return latency_us > budget_mj  # csa: ignore[CSU002]
        """) == []


class TestCSU003Binding:
    def test_assignment_positive(self):
        assert unit_codes("""
            def convert(latency_us):
                latency_ms = latency_us
                return latency_ms
        """) == ["CSU003"]

    def test_explicit_conversion_is_clean(self):
        # Dividing by an unclassified literal is the conversion escape.
        assert unit_codes("""
            def convert(latency_us):
                latency_ms = latency_us / 1000.0
                return latency_ms
        """) == []

    def test_return_against_function_name(self):
        assert unit_codes("""
            def window_ms(span_us):
                return span_us
        """) == ["CSU003"]

    def test_call_argument_binding(self):
        assert unit_codes("""
            def advance(step_us):
                return step_us


            def caller(window_ms):
                return advance(window_ms)
        """) == ["CSU003"]

    def test_matching_argument_is_clean(self):
        assert unit_codes("""
            def advance(step_us):
                return step_us


            def caller(window_us):
                return advance(window_us)
        """) == []

    def test_suppressed(self):
        assert unit_codes("""
            def convert(latency_us):
                latency_ms = latency_us  # csa: ignore[CSU003]
                return latency_ms
        """) == []

    def test_lenient_package_not_checked(self):
        # The unit rules are strict-scope rules: drivers are exempt.
        assert unit_codes("""
            def convert(latency_us):
                latency_ms = latency_us
                return latency_ms
        """, package="bench") == []

    def test_cross_module_positional_binding(self, tmp_path):
        root = build_pkg(tmp_path, {
            "simcore/power.py": """
                class EnergyMeter:
                    def record_overhead(self, energy_uj):
                        return energy_uj
            """,
            "runtime/metrics.py": """
                def charge_stall(meter, stall_us):
                    meter.record_overhead(stall_us)
            """,
        })
        assert where(lint_tree(root), root) == [
            (os.path.join("runtime", "metrics.py"), 3, "CSU003"),
        ]

    def test_keyword_binding(self):
        # Checked by the parameter's own name: no def lookup needed.
        assert unit_codes("""
            def caller(ledger, window_ms):
                return ledger.observe(measured_latency_us=window_ms)
        """) == ["CSU003"]
        assert unit_codes("""
            def caller(ledger, window_us):
                return ledger.observe(measured_latency_us=window_us)
        """) == []

    def test_ambiguous_name_left_unbound(self, tmp_path):
        # Two project defs named `observe`: a call on an arbitrary
        # receiver binds to neither, so its positional µs argument is
        # not checked against either signature.
        root = build_pkg(tmp_path, {
            "obs/residuals.py": """
                class ResidualLedger:
                    def observe(self, telemetry, measured_uj):
                        return measured_uj
            """,
            "core/adaptive.py": """
                class FeedbackRegulator:
                    def observe(self, batch_index, latency_uj):
                        return latency_uj
            """,
            "control/controller.py": """
                def on_window(ledger, telemetry, latency_us):
                    return ledger.observe(telemetry, latency_us)
            """,
        })
        assert lint_tree(root) == []

    def test_same_module_def_first(self, tmp_path):
        # `self._step_costs` binds to this module's own def even though
        # another module defines the same name.
        root = build_pkg(tmp_path, {
            "compression/lz4.py": """
                class LZ4:
                    def compress(self, span_us):
                        return self._step_costs(span_us)

                    def _step_costs(self, input_bytes):
                        return input_bytes
            """,
            "compression/tcomp32.py": """
                class Tcomp32:
                    def _step_costs(self, word_count):
                        return word_count
            """,
        })
        assert where(lint_tree(root), root) == [
            (os.path.join("compression", "lz4.py"), 4, "CSU003"),
        ]

    def test_file_named_twice_is_linted_once(self, tmp_path):
        # A directory plus a file inside it: the file's defs enter the
        # index once (so `self._step_costs` still binds) and its finding
        # is reported once.
        root = build_pkg(tmp_path, {
            "compression/lz4.py": """
                class LZ4:
                    def compress(self, span_us):
                        return self._step_costs(span_us)

                    def _step_costs(self, input_bytes):
                        return input_bytes
            """,
        })
        lz4 = os.path.join(root, "compression", "lz4.py")
        findings, scanned = lint_paths([root, lz4])
        assert scanned == 1
        assert where(findings, root) == [
            (os.path.join("compression", "lz4.py"), 4, "CSU003"),
        ]


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
        assert lint._combine(us, watt, divide=False) == parse_unit("x_uj")

    def test_frequency_is_inverse_time(self):
        hz = parse_unit("clock_hz")
        seconds = parse_unit("span_s")
        # Hz × s fully cancels: dimensionless -> unclassified (None).
        assert lint._combine(hz, seconds, divide=False) is None

    def test_format_round_trip_for_every_atom(self):
        for atom in lint._ATOMS:
            unit = parse_unit(f"value_{atom}")
            assert unit is not None
            assert format_unit(unit) == atom


#: the positional call sites of the strict modules where the retired
#: call-graph pass bound a unit-bearing parameter: path below repro/,
#: enclosing def (dotted, classes included), callee, the call's rank
#: among that def's calls of the callee in source order, and its
#: (parameter, unit) vector. Sites are named without line numbers so
#: edits elsewhere in a file leave them valid. The two marked
#: ``keyword`` resolved only through the call graph; they now pass their
#: unit-bearing argument by keyword.
UNIT_BINDING_SITES = os.path.join(
    os.path.dirname(__file__), "unit_binding_sites.json"
)


def _calls_by_def(tree):
    """(enclosing def, callee) -> [(call, enclosing classes)] in source
    order."""
    calls = {}

    def visit(node, scope, classes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), classes)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), classes + [child.name])
            else:
                if isinstance(child, ast.Call):
                    key = (".".join(scope), lint._callee_name(child))
                    calls.setdefault(key, []).append((child, classes))
                visit(child, scope, classes)

    visit(tree, (), [])
    for found in calls.values():
        found.sort(key=lambda entry: (entry[0].lineno, entry[0].col_offset))
    return calls


class TestParentUnitBindings:
    def test_index_binds_the_call_graph_vectors(self):
        with open(UNIT_BINDING_SITES, encoding="utf-8") as handle:
            sites = json.load(handle)
        trees = {}
        for directory, _dirs, names in sorted(os.walk(REPRO_ROOT)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        trees[path] = ast.parse(handle.read())
        index = lint.build_def_index(sorted(trees.items()))
        calls = {path: _calls_by_def(tree) for path, tree in trees.items()}
        bound = unbound = 0
        for site in sites:
            path = os.path.join(REPRO_ROOT, site["path"])
            call, classes = calls[path][site["def"], site["callee"]][
                site["occurrence"]
            ]
            checker = lint._UnitChecker(lambda *args: None, path, index)
            checker._classes = classes
            target = checker.def_of(call)
            if site["keyword"]:
                assert target is None, site
                unbound += 1
                continue
            vector = [
                [param, None if unit is None else format_unit(unit)]
                for param, unit in target.params
            ]
            assert vector == site["params"], site
            bound += 1
        assert (bound, unbound) == (85, 2)


# ---------------------------------------------------------------------------
# mutation study: one planted defect per rule, each caught by the linter
# ---------------------------------------------------------------------------


MUTANTS = {
    "clock-feeds-latency": ("control", """
        import time


        def measured(steady):
            return sum(steady) / len(steady) + time.time() % 1e-9
    """, ["CSA001"]),
    "unseeded-dataset-rng": ("datasets", """
        import numpy as np


        def generate(count):
            rng = np.random.default_rng()
            return rng.integers(0, 255, size=count)
    """, ["CSA002"]),
    "set-of-path-ids": ("obs", """
        def paths(measured_by_path, predicted_comm):
            return [path for path in set(measured_by_path) | set(predicted_comm)]
    """, ["CSA003"]),
    "bare-sum-of-energies": ("obs", """
        def window_energy(telemetry, window_bytes):
            return sum(uj for _core, uj in telemetry.energy_uj) / window_bytes
    """, ["CSA005"]),
    "env-sets-dataset-knob": ("datasets", """
        import os


        class Micro:
            def __init__(self, dynamic_range=500):
                self.dynamic_range = int(
                    os.environ.get("REPRO_MICRO_RANGE", dynamic_range)
                )
    """, ["CSA007"]),
    "unsorted-listdir": ("datasets", """
        import os


        def list_inputs(directory):
            return [os.path.join(directory, n) for n in os.listdir(directory)]
    """, ["CSA008"]),
    "lazy-driver-clock-import": ("runtime", """
        def run(seed, repetitions):
            from repro.bench.hostclock import jitter_seed

            return [seed + 7919 * r + jitter_seed() for r in range(repetitions)]
    """, ["CSA010"]),
}


class TestMutationStudy:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_planted_defect_is_caught(self, name):
        package, body, expected = MUTANTS[name]
        found = lint_source(
            textwrap.dedent(body), path="mutant.py", package=package
        )
        assert codes(found) == expected


# ---------------------------------------------------------------------------
# exit codes: lint / verify / cstream analyze agree on 0/1/2
# ---------------------------------------------------------------------------


class TestExitCodeConvention:
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
        strict = tmp_path / "repro" / "simcore" / "engine.py"
        strict.parent.mkdir(parents=True)
        strict.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        status_plain = cli_main(["analyze", str(strict)])
        status_json = cli_main(["analyze", str(strict), "--json"])
        assert status_plain == status_json == 1
        capsys.readouterr()

    def test_cstream_analyze_flags_driver_import(self, tmp_path, capsys):
        root = build_pkg(tmp_path, TestSeededTwoHopRegression.FILES)
        report = tmp_path / "lint.json"
        status = cli_main(["analyze", root, "--json", "--report", str(report)])
        assert status == 1
        payload = json.loads(report.read_text())
        assert payload["counts"] == {"CSA010": 1}
        capsys.readouterr()


class TestReportAndCache:
    def test_json_report_round_trip(self, tmp_path):
        root = build_pkg(tmp_path, TestSeededTwoHopRegression.FILES)
        findings, scanned = lint_paths([root])
        payload = report_payload(findings, scanned)
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored["version"] == 1
        assert restored["rules"] == RULES
        assert restored["counts"] == {"CSA010": 1}
        assert restored["files_scanned"] == 3
        assert restored["findings"][0]["path"].endswith(ENGINE_PY)


class TestDogfood:
    def test_repo_is_lint_clean_from_the_cli(self, capsys):
        assert lint_main([REPRO_ROOT]) == 0
        assert "clean" in capsys.readouterr().out

    def test_every_repo_suppression_is_justified(self):
        # A suppression carries its reason as a comment right above it
        # (up to three lines) or after the bracket on the same line.
        for directory, _dirs, names in sorted(os.walk(REPRO_ROOT)):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                lines = source.splitlines()
                for token in tokenize.generate_tokens(
                    io.StringIO(source).readline
                ):
                    if token.type != tokenize.COMMENT or (
                        "csa: ignore[" not in token.string
                    ):
                        continue
                    number = token.start[0]
                    above = lines[max(0, number - 4):number - 1]
                    reason = any(
                        text.strip().startswith("#") for text in above
                    ) or token.string.split("]", 1)[1].strip()
                    assert reason, f"{path}:{number} has no reason"

    def test_real_tree_scope(self):
        strict = {
            lint._package_of(os.path.join(directory, name))
            for directory, _dirs, names in os.walk(REPRO_ROOT)
            for name in names if name.endswith(".py")
        } - DRIVER_PACKAGES
        # The simulator's public faces all live in strict packages.
        assert {
            "simcore", "core", "runtime", "compression", "fleet", "control",
            "faults", "obs", "datasets", "analysis",
        } <= strict
        assert not strict & {"bench", "cli", "__main__"}


class TestLinterMachinery:
    def test_rule_table_lists_every_rule(self):
        assert sorted(RULES) == (
            [f"CSA{i:03d}" for i in range(1, 11)]
            + [f"CSU{i:03d}" for i in range(1, 4)]
        )

    def test_multi_code_suppression(self):
        assert lint_strict(
            "import time, os\n"
            "x = (time.time(), os.getenv('X'))"
            "  # csa: ignore[CSA001, CSA007]\n"
        ) == []

    def test_suppression_is_per_code(self):
        found = lint_strict(
            "import time\n"
            "now = time.time()  # csa: ignore[CSA005]\n"
        )
        assert codes(found) == ["CSA001"]

    def test_syntax_error_reported_not_raised(self):
        found = lint_strict("def f(:\n")
        assert codes(found) == ["CSA000"]

    def test_findings_sorted_and_located(self):
        found = lint_strict(
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert [f.line for f in found] == [2, 3]
        assert "snippet.py:2:" in found[0].format()

    def test_real_tree_is_clean(self):
        findings, scanned = lint_paths([REPRO_ROOT])
        assert scanned > 50
        assert findings == []

    def test_cli_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    pass\n")
        report = tmp_path / "report.json"
        status = lint_main(
            [str(bad), "--json", "--report", str(report)]
        )
        assert status == 1
        payload = json.loads(report.read_text())
        assert payload["counts"] == {"CSA004": 1}
        assert payload["files_scanned"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["findings"][0]["code"] == "CSA004"

    def test_cli_exit_zero_when_clean(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(xs=()):\n    return xs\n")
        assert lint_main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# plan invariants
# ---------------------------------------------------------------------------


def two_stage_plan(steps0, steps1, assignments):
    graph = TaskGraph(
        codec_name="toy",
        tasks=(
            Task(name="t0", step_ids=tuple(steps0), stage_index=0),
            Task(name="t1", step_ids=tuple(steps1), stage_index=1),
        ),
    )
    return SchedulingPlan(graph=graph, assignments=assignments)


class TestPlanInvariants:
    def test_invariant_table(self):
        assert len(INVARIANTS) == 21
        assert sum(1 for code in INVARIANTS if code.startswith("PLN")) == 6
        assert sum(1 for code in INVARIANTS if code.startswith("HLT")) == 3
        assert sum(1 for code in INVARIANTS if code.startswith("FLT")) == 5

    def test_pln001_cyclic_plan(self):
        # t0 runs s1, t1 runs s0 — the pipeline order contradicts the
        # codec's step order, so the dependency graph is cyclic.
        plan = two_stage_plan(("s1",), ("s0",), ((0,), (1,)))
        found = verify_plan(plan, expected_steps=("s0", "s1"))
        assert "PLN001" in codes(found)

    def test_pln001_clean_pipeline(self):
        plan = two_stage_plan(("s0",), ("s1",), ((0,), (1,)))
        assert verify_plan(plan, expected_steps=("s0", "s1")) == []

    def test_pln001_declared_shape_contradicts_step_graph(self):
        # Declared pipeline: t0 -> t1. Codec step graph: t1's step "b"
        # produces t0's step "a". Either edge set alone is acyclic;
        # together they are a cycle only the DAG-aware check can see.
        plan = two_stage_plan(("a",), ("b",), ((0,), (1,)))
        found = verify_plan(
            plan,
            expected_steps=("b", "a"),
            step_dependencies={"b": (), "a": ("b",)},
        )
        assert "PLN001" in codes(found)

    def test_pln_fork_join_plan_accepted(self):
        graph = TaskGraph(
            codec_name="toy-dag",
            tasks=(
                Task(name="t0", step_ids=("d0",), stage_index=0),
                Task(name="t1", step_ids=("d1",), stage_index=1,
                     predecessors=(0,)),
                Task(name="t2", step_ids=("d2",), stage_index=2,
                     predecessors=(0,)),
                Task(name="t3", step_ids=("d3",), stage_index=3,
                     predecessors=(1, 2)),
            ),
        )
        plan = SchedulingPlan(
            graph=graph, assignments=((0,), (1,), (2,), (3,))
        )
        found = verify_plan(
            plan,
            expected_steps=("d0", "d1", "d2", "d3"),
            step_dependencies={
                "d0": (), "d1": ("d0",), "d2": ("d0",),
                "d3": ("d1", "d2"),
            },
        )
        assert found == []

    def test_pln006_multiple_sinks(self):
        # TaskGraph itself refuses orphaned stages, so a multi-sink
        # shape can only come from a foreign plan object — duck-typed.
        from types import SimpleNamespace

        def fake_task(name, step_ids, predecessors):
            return SimpleNamespace(
                name=name, step_ids=step_ids, predecessors=predecessors
            )

        plan = SimpleNamespace(
            graph=SimpleNamespace(tasks=(
                fake_task("t0", ("s0",), ()),
                fake_task("t1", ("s1",), (0,)),
                fake_task("t2", ("s2",), (0,)),
            )),
            assignments=((0,), (1,), (2,)),
        )
        found = verify_plan(plan)
        assert "PLN006" in codes(found)
        assert "2 sinks" in found[0].message

    def test_pln002_missing_step(self):
        plan = two_stage_plan(("s0",), ("s1",), ((0,), (1,)))
        found = verify_plan(plan, expected_steps=("s0", "s1", "s2"))
        assert codes(found) == ["PLN002"]
        assert "s2" in found[0].message

    def test_pln002_unknown_step(self):
        plan = two_stage_plan(("s0",), ("sX",), ((0,), (1,)))
        found = verify_plan(plan, expected_steps=("s0",))
        assert codes(found) == ["PLN002"]

    def test_pln003_out_of_range_core(self, board):
        plan = two_stage_plan(("s0",), ("s1",), ((0,), (9,)))
        found = verify_plan(plan, board=board)
        assert codes(found) == ["PLN003"]
        assert "9" in found[0].message

    def test_pln004_double_booked_stage_is_warning(self):
        plan = two_stage_plan(("s0",), ("s1",), ((2, 2), (1,)))
        found = verify_plan(plan)
        assert codes(found) == ["PLN004"]
        assert found[0].severity == "warning"

    def test_pln005_infeasible_when_expected(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        graph = TaskGraph.coarse(
            context.fine_graph.codec_name,
            tuple(
                step for task in context.fine_graph.tasks
                for step in task.step_ids
            ),
        )
        model = context.cost_model(graph)
        # One replica of everything on one little core cannot meet L_set.
        plan = SchedulingPlan(graph=graph, assignments=((0,),))
        if model.evaluate(plan).feasible:
            pytest.skip("single-core coarse plan unexpectedly feasible")
        found = verify_plan(
            plan, cost_model=model, expect_feasible=True
        )
        assert codes(found) == ["PLN005"]
        assert found[0].severity == "error"
        relaxed = verify_plan(
            plan, cost_model=model, expect_feasible=False
        )
        assert [f.severity for f in relaxed] == ["warning"]

    def test_validate_raises_on_cycle(self):
        plan = two_stage_plan(("s1",), ("s0",), ((0,), (1,)))
        with pytest.raises(InvariantViolationError) as caught:
            plan.validate(expected_steps=("s0", "s1"))
        assert "PLN001" in str(caught.value)

    def test_validate_strict_promotes_warnings(self):
        plan = two_stage_plan(("s0",), ("s1",), ((2, 2), (1,)))
        assert [f.code for f in plan.validate()] == ["PLN004"]
        with pytest.raises(InvariantViolationError):
            plan.validate(strict=True)

    def test_scheduler_plan_passes_verification(
        self, board, tcomp32_rovio_context
    ):
        context = tcomp32_rovio_context
        model = context.cost_model(context.fine_graph)
        result = Scheduler(model).schedule(best_effort=True)
        found = verify_plan(
            result.plan,
            board=board,
            expected_steps=model.profile.step_ids,
            cost_model=model,
            expect_feasible=result.feasible,
        )
        assert [f for f in found if f.severity == "error"] == []


class TestSchedulerValidation:
    def _scheduler(self, context):
        return Scheduler(context.cost_model(context.fine_graph))

    def test_every_returned_plan_is_validated(
        self, monkeypatch, tcomp32_rovio_context
    ):
        import repro.analysis.verify as verify_module

        calls = []
        original = verify_module.verify_plan

        def spy(plan, **kwargs):
            calls.append(plan)
            return original(plan, **kwargs)

        monkeypatch.setattr(verify_module, "verify_plan", spy)
        self._scheduler(tcomp32_rovio_context).schedule(best_effort=True)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


def event(name="e", ph="i", ts=0.0, pid=0, tid=0, dur=0.0, cat="sim",
          **args):
    record = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid,
              "cat": cat}
    if ph == "X":
        record["dur"] = dur
    if args:
        record["args"] = args
    return record


def payload(*events):
    return {"traceEvents": list(events)}


class TestTraceInvariants:
    def test_trc001_time_goes_backwards(self):
        found = verify_chrome_payload(payload(
            event(ts=5.0), event(ts=2.0),
        ))
        assert codes(found) == ["TRC001"]
        assert found[0].severity == "error"

    def test_trc001_per_track_not_global(self):
        # interleaved tracks each monotone -> clean
        found = verify_chrome_payload(payload(
            event(ts=5.0, tid=0), event(ts=1.0, tid=1),
            event(ts=6.0, tid=0), event(ts=2.0, tid=1),
        ))
        assert found == []

    def test_trc002_energy_counter_drops(self):
        found = verify_chrome_payload(payload(
            event(name="energy.busy", ph="C", ts=1.0, cat="energy",
                  value=10.0),
            event(name="energy.busy", ph="C", ts=2.0, cat="energy",
                  value=4.0),
        ))
        assert codes(found) == ["TRC002"]

    def test_trc002_non_energy_counter_may_drop(self):
        found = verify_chrome_payload(payload(
            event(name="q.s0", ph="C", ts=1.0, cat="queue", value=3),
            event(name="q.s0", ph="C", ts=2.0, cat="queue", value=1),
        ))
        assert found == []

    def test_trc003_overlapping_spans(self):
        found = verify_chrome_payload(payload(
            event(name="a", ph="X", ts=0.0, dur=10.0),
            event(name="b", ph="X", ts=5.0, dur=10.0),
        ))
        assert codes(found) == ["TRC003"]

    def test_trc003_spans_on_other_tracks_clean(self):
        found = verify_chrome_payload(payload(
            event(name="a", ph="X", ts=0.0, dur=10.0, tid=0),
            event(name="b", ph="X", ts=5.0, dur=10.0, tid=1),
            event(name="c", ph="X", ts=10.0, dur=1.0, tid=0),
        ))
        assert found == []

    def test_trc004_reordered_same_timestamp_counters(self):
        found = verify_chrome_payload(payload(
            event(name="q.s0", ph="C", ts=3.0, cat="queue", value=1),
            event(name="q.s0", ph="C", ts=3.0, cat="queue", value=0),
        ))
        assert codes(found) == ["TRC004"]
        assert found[0].severity == "warning"

    def test_trc005_negative_timestamp(self):
        found = verify_chrome_payload(payload(event(ts=-1.0)))
        assert codes(found) == ["TRC005"]

    def test_trc005_non_integer_track(self):
        found = verify_chrome_payload(payload(event(tid="core0")))
        assert codes(found) == ["TRC005"]

    @pytest.mark.parametrize("bad, problem", [
        ({"ph": "Q"}, "unknown phase 'Q'"),
        ({"name": ""}, "missing or empty name"),
        ({"ph": "C", "args": {}}, "counter event without args"),
        ({"ph": "C", "args": {"value": "7"}}, "non-numeric value"),
        ({"ph": "i", "s": "x"}, "instant scope"),
        ({"ph": "X"}, "complete event without a dur"),
        ({"args": [1]}, "args is not an object"),
        ({"ph": "M", "name": "process_name", "args": {}}, "args.name"),
        ({"ph": "M", "name": "gremlin", "args": {"name": "x"}},
         "not process_name/thread_name"),
    ])
    def test_trc005_event_schema(self, bad, problem):
        record = dict(event(ts=1.0), **bad)
        found = verify_chrome_payload(payload(event(ts=0.0), record))
        assert codes(found) == ["TRC005"]
        assert problem in found[0].message
        assert found[0].location == "first at traceEvents[1] " + repr(
            record["name"]
        )

    def test_trc005_aggregates_per_problem(self):
        found = verify_chrome_payload(payload(
            event(ts=-1.0), event(ts=-2.0), event(name="x", ph="Q"), 7,
        ))
        # an entry that is not an object has no name and no phase
        assert [f.message for f in found] == [
            "2 event(s): negative or non-numeric ts",
            "1 event(s): unknown phase 'Q'",
            "1 event(s): missing or empty name",
            "1 event(s): unknown phase None",
        ]
        assert found[0].location == "first at traceEvents[0] 'e'"
        assert found[2].location == "first at traceEvents[3] None"

    def test_trc005_top_level_shape(self):
        for bad in ({}, [], {"traceEvents": {}}):
            found = verify_chrome_payload(bad)
            assert codes(found) == ["TRC005"]
            assert found[0].location == "top level"

    def test_trc005_needs_a_timeline_event(self):
        metadata_only = payload({
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "rep 0"},
        })
        for trace in (payload(), metadata_only):
            found = verify_chrome_payload(trace)
            assert [f.message for f in found] == [
                "no non-metadata events recorded"
            ]

    def test_trc005_applies_to_recorder_streams(self):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        recorder.span("compress", 1, 0.0, 10.0)
        assert verify_trace_events(recorder_events(recorder)) == []
        recorder.span("stall", 2, -5.0, 1.0)
        found = verify_trace_events(recorder_events(recorder))
        assert codes(found) == ["TRC005"]
        assert "negative or non-numeric ts" in found[0].message

    def test_trc006_span_after_core_failure(self):
        found = verify_chrome_payload(payload(
            event(name="core-failure", ph="i", ts=5.0, tid=902,
                  cat="fault", core=4, failover=5),
            event(name="t0:s0", ph="X", ts=6.0, dur=1.0, tid=4,
                  cat="task"),
        ))
        assert codes(found) == ["TRC006"]
        assert found[0].severity == "error"

    def test_trc006_span_at_failure_instant_clean(self):
        # the failure fires at a batch boundary the span helped produce
        found = verify_chrome_payload(payload(
            event(name="core-failure", ph="i", ts=5.0, tid=902,
                  cat="fault", core=4, failover=5),
            event(name="t0:s0", ph="X", ts=5.0, dur=1.0, tid=4,
                  cat="task"),
        ))
        assert found == []

    def test_trc006_surviving_cores_keep_working(self):
        found = verify_chrome_payload(payload(
            event(name="core-failure", ph="i", ts=5.0, tid=902,
                  cat="fault", core=4, failover=5),
            event(name="t0:s0", ph="X", ts=6.0, dur=1.0, tid=5,
                  cat="task"),
        ))
        assert found == []

    def test_trc007_retry_without_corruption(self):
        found = verify_chrome_payload(payload(
            event(name="batch-retry", ph="i", ts=2.0, tid=902,
                  cat="fault", batch=3, attempt=1),
        ))
        assert codes(found) == ["TRC007"]
        assert found[0].severity == "error"

    def test_trc007_matched_retry_clean(self):
        found = verify_chrome_payload(payload(
            event(name="batch-corrupted", ph="i", ts=1.0, tid=902,
                  cat="fault", batch=3, attempts=1),
            event(name="batch-retry", ph="i", ts=2.0, tid=902,
                  cat="fault", batch=3, attempt=1),
        ))
        assert found == []

    def test_metadata_events_ignored(self):
        found = verify_chrome_payload(payload(
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "rep 0"}},
            event(ts=1.0),
        ))
        assert found == []

    def test_real_traced_run_has_no_errors(
        self, small_harness, tcomp32_rovio_spec
    ):
        _, recorder = small_harness.run_traced(
            tcomp32_rovio_spec, "CStream", repetitions=1
        )
        found = verify_trace_events(recorder_events(recorder))
        assert [f for f in found if f.severity == "error"] == []


def trace_errors(trace):
    return [f.format() for f in errors_only(verify_chrome_payload(trace))]


class TestTraceSchemaAndInvariants:
    """One check covers the event schema (TRC005) and the stream
    invariants; warnings do not fail it."""

    def test_schema_check_now_rejects_backwards_time(self):
        problems = trace_errors(payload(
            event(ts=5.0), event(ts=2.0),
        ))
        assert any("TRC001" in problem for problem in problems)

    def test_valid_trace_still_passes(self):
        problems = trace_errors(payload(
            event(ts=1.0), event(ts=2.0),
        ))
        assert problems == []

    def test_warnings_do_not_fail_schema_check(self):
        problems = trace_errors(payload(
            event(name="q", ph="C", ts=3.0, value=1),
            event(name="q", ph="C", ts=3.0, value=0),
        ))
        assert problems == []


class TestVerifyCli:
    def test_errors_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps(payload(event(ts=5.0), event(ts=2.0))))
        assert verify_main([str(path)]) == 1
        assert "TRC001" in capsys.readouterr().out

    def test_warnings_need_strict(self, tmp_path, capsys):
        path = tmp_path / "warn.trace.json"
        path.write_text(json.dumps(payload(
            event(name="q", ph="C", ts=3.0, value=1),
            event(name="q", ph="C", ts=3.0, value=0),
        )))
        assert verify_main([str(path)]) == 0
        assert verify_main([str(path), "--strict"]) == 1
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps(payload(event(ts=-1.0))))
        assert verify_main([str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 1
        assert report["findings"][0]["code"] == "TRC005"

    def test_unreadable_file(self, tmp_path, capsys):
        path = tmp_path / "nope.trace.json"
        assert verify_main([str(path)]) == 2
        capsys.readouterr()

    def test_non_json_file_is_unreadable(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("not json {\n")
        assert verify_main([str(path)]) == 2
        assert "neither JSON nor NDJSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,content",
        [("junk.txt", b"not json {\n"), ("missing.json", None),
         ("binary.dat", b"\xff\xfe\x00")],
        ids=["not-json", "missing", "not-utf8"],
    )
    def test_unreadable_file_is_named_once(
        self, tmp_path, capsys, name, content
    ):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert verify_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: unreadable: ")
        assert err.count(name) == 1


class TestAnalyzeSubcommand:
    def test_analyze_defaults_to_package_and_is_clean(self, capsys):
        assert cli_main(["analyze"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_analyze_flags_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    pass\n")
        assert cli_main(["analyze", str(bad)]) == 1
        assert "CSA004" in capsys.readouterr().out

    def test_analyze_with_trace(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        trace = tmp_path / "bad.trace.json"
        trace.write_text(json.dumps(payload(event(ts=5.0), event(ts=2.0))))
        assert cli_main(
            ["analyze", str(good), "--trace", str(trace)]
        ) == 1
        out = capsys.readouterr().out
        assert "TRC001" in out


# ---------------------------------------------------------------------------
# ordered_sum
# ---------------------------------------------------------------------------


class TestOrderedSum:
    def test_matches_builtin_sum_exactly(self):
        values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.4]
        assert ordered_sum(values) == sum(values)

    def test_start_value(self):
        assert ordered_sum([1.0, 2.0], start=10.0) == 13.0

    def test_empty(self):
        assert ordered_sum([]) == 0.0

    def test_consumes_generators(self):
        assert ordered_sum(x * 0.5 for x in range(4)) == 3.0


def health_window(**overrides):
    window = {
        "window_index": 0,
        "measured_latency_us_per_byte": 24.0,
        "predicted_latency_us_per_byte": 20.0,
        "latency_residual_us_per_byte": 4.0,
        "measured_energy_uj_per_byte": 0.4,
        "predicted_energy_uj_per_byte": 0.35,
        "energy_residual_uj_per_byte": 0.05,
        "components": [
            {"kind": "path", "key": "c1",
             "residual_us_per_byte": 3.5, "score": 9.0},
        ],
        "unattributed_us_per_byte": 0.5,
        "violated": True,
        "anomalous": True,
        "attribution": {
            "kind": "path", "key": "c1", "score": 9.0,
            "residual_us_per_byte": 3.5, "confidence": 1.0,
        },
    }
    window.update(overrides)
    return window


def health_payload(*windows):
    return {
        "schema_version": 1,
        "label": "test",
        "board": "test board",
        "latency_constraint_us_per_byte": 33.0,
        "windows": list(windows) or [health_window()],
    }


class TestHealthInvariants:
    def test_clean_report_passes(self):
        assert verify_health(health_payload()) == []

    def test_hlt001_sum_mismatch(self):
        findings = verify_health(health_payload(
            health_window(unattributed_us_per_byte=2.0)
        ))
        assert [f.code for f in findings] == ["HLT001"]
        assert findings[0].severity == "error"

    def test_hlt002_phantom_attribution(self):
        bad = health_window()
        bad["attribution"] = dict(bad["attribution"], kind="retry", key="1")
        findings = verify_health(health_payload(bad))
        assert "HLT002" in [f.code for f in findings]

    def test_hlt002_unknown_path(self):
        bad = health_window()
        bad["components"][0]["key"] = "warp"
        bad["attribution"] = dict(bad["attribution"], key="warp")
        findings = verify_health(health_payload(bad))
        assert [f.code for f in findings] == ["HLT002"]

    def test_hlt002_negative_stage_index(self):
        bad = health_window()
        bad["components"][0] = {"kind": "retry", "key": "-1",
                                "residual_us_per_byte": 3.5, "score": 9.0}
        bad["attribution"] = dict(bad["attribution"], kind="retry",
                                  key="-1")
        findings = verify_health(health_payload(bad))
        assert [f.code for f in findings] == ["HLT002"]

    def test_hlt003_nonfinite_skips_arithmetic(self):
        findings = verify_health(health_payload(health_window(
            latency_residual_us_per_byte=float("inf"),
            unattributed_us_per_byte=2.0,
        )))
        # HLT003 fires; HLT001 is withheld on the same window because
        # comparing against a non-finite residual is meaningless
        assert [f.code for f in findings] == ["HLT003"]

    def test_verify_cli_autodetects_health_payload(self, tmp_path, capsys):
        good = tmp_path / "health.json"
        good.write_text(json.dumps(health_payload()))
        assert verify_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(health_payload(
            health_window(unattributed_us_per_byte=2.0)
        )))
        assert verify_main([str(bad)]) == 1
        assert "HLT001" in capsys.readouterr().out


def fleet_payload(tenant_state="running"):
    from repro.obs.health import (
        FleetBoardHealth,
        FleetHealth,
        FleetTenantHealth,
        FleetWindowHealth,
        to_record,
    )

    board = FleetBoardHealth(
        board_index=0, name="rk3399-0", kind="rk3399", alive=True,
        breaker_state="closed", consecutive_failures=0, throttled_mhz=None,
        max_core_load=0.5, tenants_running=1, rpc_failures=0,
    )
    tenant = FleetTenantHealth(
        tenant_id=0, name="tenant-0", priority=1, state="running",
        board_index=0, l_set_us_per_byte=30.0,
        modeled_latency_us_per_byte=20.0, measured_latency_us_per_byte=21.0,
        modeled_energy_uj_per_byte=0.4, violated=False,
    )
    report = to_record(FleetHealth(
        label="fleet", arm="static", seed=0, board_count=1, tenant_count=1,
        energy_budget_uj_per_window=1e6,
        windows=(FleetWindowHealth(
            window_index=0, boards=(board,), tenants=(tenant,),
            violations=0, energy_uj=10.0,
        ),),
        events=(),
    ))
    report["windows"][0]["tenants"][0]["state"] = tenant_state
    return report


def _missing_field_session():
    window = health_window()
    del window["violated"]
    return json.dumps(health_payload(window))


#: (case, file text, codes the one checker must report) — each of these
#: broken artifacts once passed the invariant-only verifier
_BROKEN_ARTIFACTS = [
    ("session-window-without-violated", _missing_field_session(),
     ["HLT003"]),
    ("trace-bad-phase-name-and-counter", json.dumps(payload(
        event(ts=1.0, ph="Q"),
        event(ts=2.0, name=""),
        event(ts=3.0, name="q.s0", ph="C", value="7"),
    )), ["TRC005", "TRC005", "TRC005"]),
    ("trace-without-events", '{"traceEvents": []}', ["TRC005"]),
    ("one-line-tail-with-hlt001", json.dumps(
        health_window(unattributed_us_per_byte=2.0)) + "\n", ["HLT001"]),
    ("fleet-tenant-in-unknown-state",
     json.dumps(fleet_payload(tenant_state="zombie")), ["HLT003"]),
]


class TestOneArtifactChecker:
    """The verifier checks each artifact's schema and its invariants;
    ``cstream analyze --trace`` fronts the same check."""

    @pytest.mark.parametrize(
        "text, expected",
        [case[1:] for case in _BROKEN_ARTIFACTS],
        ids=[case[0] for case in _BROKEN_ARTIFACTS],
    )
    def test_broken_artifact_fails(self, tmp_path, capsys, text, expected):
        artifact = tmp_path / "artifact.json"
        artifact.write_text(text)
        assert verify_main([str(artifact), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in report["findings"]] == expected
        source = tmp_path / "clean.py"
        source.write_text("x = 1\n")
        assert cli_main(["analyze", str(source), "--trace", str(artifact)]) == 1
        assert expected[0] in capsys.readouterr().out
