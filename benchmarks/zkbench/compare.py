"""Compare two zkbench result files, metric by metric.

This is the A/A checker for the benchmark itself and the gate a later
change is judged with: for every workload and end-to-end metric it prints
both medians, the ratio with its base, and whether the second side is
``ok``, ``worse`` (beyond the metric's bound) or ``unresolved`` (a side
has too few runs, or its run-to-run spread is wider than the bound, so
the medians cannot be told apart).  The share of failed ops is compared
too, and may not rise at all.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, TextIO

from zkbench.catalog import END_TO_END

#: Fewer runs than this on either side cannot support a verdict.
MIN_RUNS = 3

OK, WORSE, UNRESOLVED = 0, 1, 2


def spread_share(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile over the median;
    ``None`` when there are too few values to have one."""
    if len(values) < MIN_RUNS:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(better: str, bound: float, base: List[float],
          other: List[float]) -> Dict[str, object]:
    a, b = statistics.median(base), statistics.median(other)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    spreads = [spread_share(base), spread_share(other)]
    if None in spreads or max(spreads) > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    return {"base": a, "other": b, "ratio": b / a,
            "spread": None if None in spreads else max(spreads),
            "verdict": verdict}


def failed_share(entry: Dict[str, object]) -> float:
    return sum(entry["failed"]) / sum(entry["attempted"])


def compare_files(base_path: str, other_path: str, out: TextIO) -> int:
    """Print the comparison.  Returns 1 if anything is worse or a larger
    share of ops failed, else 2 if anything is unresolved, else 0."""
    with open(base_path) as fh:
        base = json.load(fh)["workloads"]
    with open(other_path) as fh:
        other = json.load(fh)["workloads"]
    verdicts = set()
    out.write("%-16s %-20s %12s %12s %8s %7s  %s\n" % (
        "workload", "metric", "base", "other", "ratio", "spread", "verdict"))
    for name in base:
        if name not in other:
            continue
        for metric in END_TO_END:
            a = base[name]["end_to_end"][metric.name]["values"]
            b = other[name]["end_to_end"][metric.name]["values"]
            row = judge(metric.better, metric.bound, a, b)
            verdicts.add(row["verdict"])
            spread = ("%6.1f%%" % (100 * row["spread"])
                      if row["spread"] is not None else "%7s" % "n<3")
            out.write("%-16s %-20s %12.5g %12.5g %7.3fx %s  %s\n" % (
                name, metric.name, row["base"], row["other"], row["ratio"],
                spread, row["verdict"]))
        share_a, share_b = failed_share(base[name]), failed_share(other[name])
        verdict = "worse" if share_b > share_a else "ok"
        verdicts.add(verdict)
        out.write("%-16s %-20s %12.5g %12.5g %8s %7s  %s\n" % (
            name, "failed_share", share_a, share_b, "", "", verdict))
    out.write("ratio = other / base; spread = widest interquartile range "
              "over its median; failed_share may not rise\n")
    if "worse" in verdicts:
        return WORSE
    return UNRESOLVED if "unresolved" in verdicts else OK
