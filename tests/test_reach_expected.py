"""The reach audit's list of kept functions stays true between runs.

``benchmarks/reach_audit.py`` runs every documented command under a call
recorder and fails when the functions none of them reaches differ from
``benchmarks/reach_expected.txt``. That takes about 35 s, so CI runs it
in its own job; here the list is checked against the source alone:
each entry names a function ``src/repro`` defines, and gives a reason
the audit accepts. A deletion that leaves its entry behind fails here.
"""

import importlib.util
from pathlib import Path

import pytest

AUDIT_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "reach_audit.py"


def _load_audit():
    spec = importlib.util.spec_from_file_location("reach_audit", AUDIT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AUDIT = _load_audit()
EXPECTED = AUDIT.read_expected()


@pytest.fixture(scope="module")
def defined():
    return {
        AUDIT.qualified(key[0], name)
        for key, name, _, _ in AUDIT.defined_functions()
    }


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_entry_names_a_defined_function(name, defined):
    assert name in defined


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_entry_gives_a_kept_reason(name):
    assert EXPECTED[name] in AUDIT.KEPT_REASONS


def test_malformed_line_rejected(tmp_path):
    listing = tmp_path / "expected.txt"
    listing.write_text("repro/cli.py::main  # no reason given\n")
    with pytest.raises(ValueError):
        AUDIT.read_expected(listing)
