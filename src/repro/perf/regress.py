"""Benchmark regression gating (``zkml bench --compare`` and
``benchmarks/regress.py``).

Diffs a fresh benchmark report against a committed baseline and fails —
exit non-zero — when any metric regresses beyond its threshold.  Two
metric classes with different rules:

- **deterministic** metrics (``k``, ``num_cols``, ``proof_bytes``,
  ``modeled_proof_bytes``, every ``observed_ops.*`` counter): the prover does exactly this much
  work for these inputs, so any *increase* is a regression (threshold
  0.0 by default).  Decreases are reported as improvements, not
  failures — shrinking the circuit is the whole point of the project.
- **timing** metrics (anything ending in ``_seconds``): noisy by nature,
  gated by a relative threshold (default +50%; CI uses a looser one so
  a slow runner can't fail the build on wall-clock alone).

Some serve-schema metrics are **higher-is-better** (``throughput_rps``,
``speedup_vs_independent``, ``mean_occupancy``, ``keygen_cache_hits``):
for those the gate flips — a *decrease* beyond the threshold regresses
(``allowed = base / (1 + limit)``), an increase is an improvement.  They
derive from wall-clock, so they share the relative "time" default
threshold.

A metric present in the baseline but missing from the current report is
a regression (coverage loss); a new metric in the current report is
informational.  Thresholds are per-metric overrides, with the special
key ``time`` applying to every ``*_seconds`` metric at once::

    thresholds = {"time": 4.0, "dlrm.prove_seconds": 0.5,
                  "dlrm.observed_ops.commitments": 0.0}

Works on both report schemas (``zkml-bench-prover/v1`` keyed by model,
``zkml-bench-serve/v1`` flattened) — any JSON document degrades to a
flat diff of its numeric leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

__all__ = ["MetricDiff", "RegressionReport", "compare_reports",
           "load_report", "parse_thresholds", "DEFAULT_TIME_THRESHOLD"]

#: Default relative slack for ``*_seconds`` metrics (+50%).
DEFAULT_TIME_THRESHOLD = 0.5

#: Keys never diffed — environment/config noise, not performance.
SKIP_KEYS = frozenset({
    "schema", "python", "seed", "scheme",
    "seed_baseline_seconds", "speedup_vs_seed",
})


def load_report(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def parse_thresholds(pairs) -> Dict[str, float]:
    """Parse CLI ``key=value`` threshold overrides."""
    out: Dict[str, float] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(
                "threshold must be key=value, got %r" % (pair,))
        key, _, value = pair.partition("=")
        out[key.strip()] = float(value)
    return out


#: Metrics where *more* is better: the regression gate flips direction.
HIGHER_IS_BETTER_SUFFIXES = (
    "throughput_rps", "speedup_vs_independent", "mean_occupancy",
    "keygen_cache_hits",
)


def _is_timing(metric: str) -> bool:
    # RSS peaks are environment-noisy like wall-clock, so they share the
    # relative "time" threshold rather than the exact-match default.
    return (metric.endswith("_seconds") or ".phase_seconds." in metric
            or metric.endswith("_rss_kb") or ".phase_rss_kb." in metric)


def _is_higher_better(metric: str) -> bool:
    return metric.endswith(HIGHER_IS_BETTER_SUFFIXES)


def flatten_metrics(report: Dict) -> Dict[str, float]:
    """All numeric leaves of a report, dotted-path keyed.

    The prover schema's ``models`` list is re-keyed by model name so the
    diff is stable under reordering; everything else flattens
    positionally.
    """

    out: Dict[str, float] = {}

    def walk(prefix: str, node) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            out[prefix] = float(node)
            return
        if isinstance(node, dict):
            for key in sorted(node):
                if key in SKIP_KEYS:
                    continue
                walk("%s.%s" % (prefix, key) if prefix else key, node[key])
            return
        if isinstance(node, list):
            if all(isinstance(e, dict) and "model" in e for e in node) \
                    and node:
                for entry in node:
                    walk("%s.%s" % (prefix, entry["model"]) if prefix
                         else str(entry["model"]), entry)
            else:
                for i, entry in enumerate(node):
                    walk("%s.%d" % (prefix, i), entry)

    walk("", report)
    # the models.* prefix is pure noise in every metric name
    return {
        (key[len("models."):] if key.startswith("models.") else key): value
        for key, value in out.items()
    }


@dataclass
class MetricDiff:
    """One metric's baseline-vs-current verdict."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    threshold: float
    #: "ok" | "improved" | "regressed" | "missing" | "new"
    status: str

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline and self.current is not None:
            return self.current / self.baseline
        return None

    def render(self) -> str:
        if self.status == "missing":
            return "MISSING   %-46s baseline %s, absent now" % (
                self.metric, _fmt(self.baseline))
        if self.status == "new":
            return "new       %-46s %s" % (self.metric, _fmt(self.current))
        ratio = self.ratio
        arrow = ("%+.1f%%" % (100.0 * (ratio - 1.0))) if ratio else "n/a"
        limit_sign = "-" if _is_higher_better(self.metric) else "+"
        return "%-9s %-46s %s -> %s (%s, limit %s%.0f%%)" % (
            self.status.upper() if self.status == "regressed"
            else self.status,
            self.metric, _fmt(self.baseline), _fmt(self.current), arrow,
            limit_sign, 100.0 * self.threshold)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return "%.4f" % value


@dataclass
class RegressionReport:
    """The full diff; ``ok`` is the CI gate."""

    baseline_path: str
    diffs: List[MetricDiff] = dataclass_field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDiff]:
        return [d for d in self.diffs
                if d.status in ("regressed", "missing")]

    @property
    def improvements(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> Dict:
        return {
            "schema": "zkml-regress/v1",
            "baseline": self.baseline_path,
            "ok": self.ok,
            "checked": len(self.diffs),
            "regressions": [d.metric for d in self.regressions],
            "improvements": [d.metric for d in self.improvements],
            "diffs": [
                {"metric": d.metric, "baseline": d.baseline,
                 "current": d.current, "threshold": d.threshold,
                 "status": d.status}
                for d in self.diffs
            ],
        }

    def render(self, verbose: bool = False) -> str:
        lines = []
        for diff in self.diffs:
            if verbose or diff.status in ("regressed", "missing",
                                          "improved", "new"):
                lines.append(diff.render())
        verdict = ("OK: %d metrics within thresholds"
                   % len(self.diffs)) if self.ok else (
            "REGRESSED: %d of %d metrics (baseline %s)"
            % (len(self.regressions), len(self.diffs), self.baseline_path))
        lines.append(verdict)
        return "\n".join(lines)


def _threshold_for(metric: str, thresholds: Dict[str, float]) -> float:
    if metric in thresholds:
        return thresholds[metric]
    # longest matching suffix-style override, e.g. "prove_seconds" or
    # "observed_ops.commitments" applying across models
    candidates = [key for key in thresholds
                  if key not in ("time",) and
                  (metric.endswith("." + key) or metric == key)]
    if candidates:
        return thresholds[max(candidates, key=len)]
    if _is_timing(metric) or _is_higher_better(metric):
        # higher-is-better metrics derive from wall-clock, so they share
        # the relative timing slack rather than the exact-match default
        return thresholds.get("time", DEFAULT_TIME_THRESHOLD)
    return 0.0


def compare_reports(
    baseline: Dict,
    current: Dict,
    thresholds: Optional[Dict[str, float]] = None,
    baseline_path: str = "<baseline>",
) -> RegressionReport:
    """Diff two benchmark reports metric by metric."""
    thresholds = thresholds or {}
    base_metrics = flatten_metrics(baseline)
    cur_metrics = flatten_metrics(current)
    report = RegressionReport(baseline_path=baseline_path)
    for metric in sorted(set(base_metrics) | set(cur_metrics)):
        base = base_metrics.get(metric)
        cur = cur_metrics.get(metric)
        limit = _threshold_for(metric, thresholds)
        if base is None:
            report.diffs.append(MetricDiff(metric, None, cur, limit, "new"))
            continue
        if cur is None:
            report.diffs.append(
                MetricDiff(metric, base, None, limit, "missing"))
            continue
        if _is_higher_better(metric):
            allowed = base / (1.0 + limit) if base >= 0 else base
            if cur < allowed and base - cur > 1e-12:
                status = "regressed"
            elif cur > base + 1e-12:
                status = "improved"
            else:
                status = "ok"
        else:
            allowed = base * (1.0 + limit) if base >= 0 else base
            if cur > allowed and cur - base > 1e-12:
                status = "regressed"
            elif cur < base - 1e-12:
                status = "improved"
            else:
                status = "ok"
        report.diffs.append(MetricDiff(metric, base, cur, limit, status))
    return report


def compare_files(
    baseline_path: str,
    current_path: str,
    thresholds: Optional[Dict[str, float]] = None,
) -> RegressionReport:
    return compare_reports(
        load_report(baseline_path), load_report(current_path),
        thresholds=thresholds, baseline_path=baseline_path)
