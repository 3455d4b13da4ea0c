"""Compare two result sets written by ``run.py``: ``compare.py A.json B.json``.

One row per workload and end-to-end metric: both medians, both quartile
pairs, the bound ``BENCHMARK.json`` fixes, and a verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is.  The command then exits non-zero.
``unresolved``
    the run-to-run spread of either set (distance between its quartiles, as
    a share of its median) is wider than the bound, so the sets cannot tell —
    unless every run of B reads better than every run of A, which is ``ok``.

A is the parent (or the first of two sets of one commit), B the change (or the
second set).  This is what the two-set agreement check runs, and what a later
change that claims a gain is measured with.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from catalog import Catalogue


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile (one value stands for all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(result_set: dict, workload: str, metric: str) -> List[float]:
    return [
        run["untraced"]["metrics"][metric]["value"]
        for run in result_set["workloads"].get(workload, [])
        if "untraced" in run
    ]


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float, float]:
    """``(verdict, relative change of the median toward worse, widest spread)``."""
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b2 - a2) / a2 if a2 else 0.0
    spread = max((a3 - a1) / a2 if a2 else 0.0, (b3 - b1) / b2 if b2 else 0.0)
    if change > bound:
        return "worse", change, spread
    if spread > bound:
        every_b_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        if not every_b_better:
            return "unresolved", change, spread
    return "ok", change, spread


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            sets.append(json.load(handle))
    first, second = sets
    catalogue = Catalogue()
    counts: Dict[str, int] = {"ok": 0, "worse": 0, "unresolved": 0}
    incorrect = 0
    header = (
        f"{'workload':<22}{'metric':<22}{'A median':>12}{'A q1..q3':>24}"
        f"{'B median':>12}{'B q1..q3':>24}{'change':>9}{'spread':>8}{'bound':>7}  verdict"
    )
    print(header)
    for workload in catalogue.workloads:
        for result_set, label in ((first, "A"), (second, "B")):
            bad = [
                run["seed"]
                for run in result_set["workloads"].get(workload, [])
                for pass_name in ("untraced", "traced")
                if pass_name in run and not run[pass_name]["correct"]
            ]
            if bad:
                incorrect += len(bad)
                print(f"{workload:<22}set {label}: correctness checks failed on seeds {bad}")
        for metric, entry in catalogue.end_to_end.items():
            a = metric_values(first, workload, metric)
            b = metric_values(second, workload, metric)
            if not a or not b:
                print(f"{workload:<22}{metric:<22}missing from one of the sets")
                counts["unresolved"] += 1
                continue
            outcome, change, spread = verdict(a, b, entry["better"], entry["bound"])
            counts[outcome] += 1
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            print(
                f"{workload:<22}{metric:<22}{a2:>12.5g}{f'{a1:.5g}..{a3:.5g}':>24}"
                f"{b2:>12.5g}{f'{b1:.5g}..{b3:.5g}':>24}"
                f"{change * 100:>+8.1f}%{spread * 100:>7.1f}%{entry['bound'] * 100:>6.0f}%  {outcome}"
            )
    print(
        f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved, "
        f"{incorrect} incorrect run(s); n = {len(metric_values(first, catalogue.workloads[0], 'setup_s'))} "
        f"and {len(metric_values(second, catalogue.workloads[0], 'setup_s'))} runs per workload"
    )
    return 1 if counts["worse"] or incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
