"""Compare benchmark records (``run.py --out``) metric by metric.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python3 benchmarks/e2e/compare.py --pairs P1.json C1.json P2.json C2.json ...

For every workload and end-to-end metric it prints both medians and
IQRs and a verdict from the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — the spread (IQR over median, the wider of the two
  sides) exceeds the bound, unless every sample of the change reads
  better than every sample of the parent (then ``better``);
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``unchanged`` — otherwise.

``--pairs`` takes the records of alternating parent/change runs (run
them alternately, flipping which side goes first) and applies the claim
rule on the runs' medians: at least 10 pairs, the change wins at least
9 in 10 (ties count for neither), and the medians differ by more than
the IQR of the parent's runs. It still reports ``worse`` for a change
whose median is worse than the parent's by more than the bound.
Metrics without a bound (``op_p90_ms``) are printed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import iqr

ROOT = Path(__file__).resolve().parents[2]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, Tuple[str, float]]:
    declared = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}


def gain(parent: float, change: float, better: str) -> float:
    """Relative improvement of ``change`` over ``parent`` (negative: worse)."""
    delta = (change - parent) / parent
    return delta if better == "higher" else -delta


def _beats(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """Verdict on two sample sets of one metric (see module docstring)."""
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    spread = max(iqr(parent) / parent_median, iqr(change) / change_median)
    if spread > bound:
        if all(_beats(c, p, better) for c in change for p in parent):
            return "better"
        return "unresolved"
    relative = gain(parent_median, change_median, better)
    if relative < -bound:
        return "worse"
    if relative > bound:
        return "better"
    return "unchanged"


def paired_verdict(parent: Sequence[float], change: Sequence[float],
                   better: str, bound: float) -> Tuple[str, int]:
    """(verdict, wins) under the claim rule for alternating runs."""
    wins = sum(_beats(c, p, better) for p, c in zip(parent, change))
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if gain(parent_median, change_median, better) < -bound:
        return "worse", wins
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and abs(change_median - parent_median) > iqr(parent)
    ):
        return "better", wins
    return "no claim", wins


def _rows(records: List[dict]):
    """(workload, metric, unit) present in every record."""
    first = records[0]["workloads"]
    for workload, result in first.items():
        for name, metric in result["end_to_end"].items():
            if all(
                name in r["workloads"].get(workload, {}).get("end_to_end", {})
                for r in records
            ):
                yield workload, name, metric["unit"]


def _line(workload, name, unit, parent, change, verdict_text) -> str:
    return (
        f"{workload:8} {name:22} {unit:4} "
        f"{statistics.median(parent):12.6g} ±{iqr(parent):<10.3g} "
        f"{statistics.median(change):12.6g} ±{iqr(change):<10.3g} {verdict_text}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", action="store_true",
                        help="records alternate parent, change, parent, ...")
    parser.add_argument("records", nargs="+", metavar="RECORD.json")
    args = parser.parse_args(argv)
    if len(args.records) % 2 or (not args.pairs and len(args.records) != 2):
        parser.error("give PARENT CHANGE, or with --pairs an even number of records")
    records = [json.loads(Path(path).read_text()) for path in args.records]
    parents, changes = records[0::2], records[1::2]
    bounds = load_bounds()

    for side, group in (("parent", parents), ("change", changes)):
        failed = sum(r["failed"] for r in group)
        attempted = sum(r["attempted"] for r in group)
        print(f"{side}: {failed} of {attempted} ops failed")
    print(f"{'workload':8} {'metric':22} {'unit':4} {'parent':>12} {'IQR':11} "
          f"{'change':>12} {'IQR':11} verdict")
    for workload, name, unit in _rows(records):
        if args.pairs:
            parent = [r["workloads"][workload]["end_to_end"][name]["median"] for r in parents]
            change = [r["workloads"][workload]["end_to_end"][name]["median"] for r in changes]
        else:
            parent = parents[0]["workloads"][workload]["end_to_end"][name]["samples"]
            change = changes[0]["workloads"][workload]["end_to_end"][name]["samples"]
        if name not in bounds:
            text = "-"
        elif args.pairs:
            text, wins = paired_verdict(parent, change, *bounds[name])
            text = f"{text} ({wins}/{len(parent)} wins)"
        else:
            text = verdict(parent, change, *bounds[name])
        print(_line(workload, name, unit, parent, change, text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
