"""``python3 -m perfbench compare A.json B.json``: is B worse than A?

A and B are reports written with ``--out`` (``--append`` adds runs to one).
One row per workload × end-to-end metric: both medians with quartiles, the
ratio B/A (A is the base), the bound ``BENCHMARK.json`` fixes for the
metric, and a verdict:

* ``unresolved`` — the run-to-run spread (interquartile distance over the
  median, the wider side) exceeds the bound: the data cannot tell;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own spread and, when
  both reports hold at least ten runs (taken alternately, A B A B ...), B
  wins at least nine tenths of the pairs, ties counting for neither;
* ``same`` — anything else.

With one run per report the quartiles come from that run's repeats; with
several, from the runs' medians; with fewer than three values on a side
every row is ``unresolved``.  ``setup_s`` differences under 5 ms are
``same`` whatever their ratio.  ``failed_share`` must not rise at all.
Exit status 1 on any ``worse`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

from . import harness

PAIRS_NEEDED = 10
SETUP_FLOOR_S = 0.005


def _load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    return [run for run in runs if not run["trace"]]


def _series(runs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    """One value per run; a lone run contributes its repeats instead."""
    entries = [run["workloads"][workload]["metrics"][metric] for run in runs if workload in run["workloads"]]
    if len(entries) == 1:
        return list(entries[0]["samples"])
    return [entry["value"] for entry in entries]


def _summary(values: Sequence[float]) -> Tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float, floor: float) -> str:
    if min(len(a), len(b)) < 3:
        return "unresolved"  # e.g. a --quick report: no spread to judge by
    median_a, q1_a, q3_a = _summary(a)
    median_b, q1_b, q3_b = _summary(b)
    if abs(median_b - median_a) < floor:
        return "same"
    spread_a = (q3_a - q1_a) / median_a
    spread = max(spread_a, (q3_b - q1_b) / median_b)
    if spread > bound:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (median_b - median_a) / median_a
    if gain < -bound:
        return "worse"
    if gain > spread_a:
        pairs = min(len(a), len(b))
        if pairs < PAIRS_NEEDED:
            return "better"
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        if wins >= 0.9 * pairs:
            return "better"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m perfbench compare A.json B.json", file=sys.stderr)
        return 2
    runs_a, runs_b = _load(argv[0]), _load(argv[1])
    manifest = harness.load_manifest()
    failed = False
    header = f"{'workload':<18} {'metric':<22} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict"
    print(header)
    for workload in (entry["name"] for entry in manifest["workloads"]):
        if not any(workload in run["workloads"] for run in runs_a + runs_b):
            continue
        for metric in manifest["end_to_end"]:
            a = _series(runs_a, workload, metric["name"])
            b = _series(runs_b, workload, metric["name"])
            if not a or not b:
                continue
            floor = SETUP_FLOOR_S if metric["name"] == "setup_s" else 0.0
            verdict = _verdict(a, b, metric["better"], metric["bound"], floor)
            failed = failed or verdict == "worse"
            unit = metric["unit"]
            (ma, q1a, q3a), (mb, q1b, q3b) = _summary(a), _summary(b)
            side_a = f"{ma:.4g} [{q1a:.4g}, {q3a:.4g}] {unit}"
            side_b = f"{mb:.4g} [{q1b:.4g}, {q3b:.4g}] {unit}"
            print(
                f"{workload:<18} {metric['name']:<22} {side_a:<34} {side_b:<34} "
                f"{mb / ma:>7.3f} {metric['bound']:>6.2f}  {verdict}"
            )
        shares = []
        for runs in (runs_a, runs_b):
            results = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
            attempted = sum(result["attempted"] for result in results)
            shares.append(sum(result["failed"] for result in results) / attempted if attempted else 0.0)
        verdict = "worse" if shares[1] > shares[0] else "same"
        failed = failed or verdict == "worse"
        print(
            f"{workload:<18} {'failed_share':<22} {shares[0]:<34.6f} {shares[1]:<34.6f} "
            f"{'':>7} {0:>6.2f}  {verdict}"
        )
    return 1 if failed else 0
