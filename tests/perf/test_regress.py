"""Tests for the benchmark regression gate."""

import json
import subprocess
import sys

import pytest

from repro.perf.regress import (
    DEFAULT_TIME_THRESHOLD,
    _threshold_for,
    compare_files,
    compare_reports,
    flatten_metrics,
    parse_thresholds,
)


def prover_report(prove=1.0, commitments=10, k=9):
    """A minimal zkml-bench-prover/v1 shaped report."""
    return {
        "schema": "zkml-bench-prover/v1",
        "python": "3.11",
        "seed": 0,
        "models": [
            {"model": "dlrm", "k": k, "num_cols": 10,
             "prove_seconds": prove, "verify_seconds": 0.01,
             "modeled_proof_bytes": 4000,
             "observed_ops": {"commitments": commitments, "ntt_base": 40},
             "phase_seconds": {"commit": prove * 0.5}},
        ],
    }


class TestFlatten:
    def test_models_rekeyed_by_name_and_prefix_stripped(self):
        flat = flatten_metrics(prover_report())
        assert "dlrm.prove_seconds" in flat
        assert "dlrm.observed_ops.commitments" in flat
        assert not any(key.startswith("models.") for key in flat)

    def test_reordering_models_is_stable(self):
        doc = prover_report()
        doc["models"].append({"model": "mnist", "k": 8, "prove_seconds": 2.0})
        reordered = {**doc, "models": list(reversed(doc["models"]))}
        assert flatten_metrics(doc) == flatten_metrics(reordered)

    def test_skip_keys_and_bools_dropped(self):
        flat = flatten_metrics(
            {"schema": "x", "seed": 7, "ok": True, "n": 3})
        assert flat == {"n": 3.0}

    def test_positional_lists(self):
        flat = flatten_metrics({"xs": [1, 2]})
        assert flat == {"xs.0": 1.0, "xs.1": 2.0}


class TestThresholds:
    def test_parse(self):
        assert parse_thresholds(["time=4.0", "dlrm.k=0.1"]) == {
            "time": 4.0, "dlrm.k": 0.1}
        with pytest.raises(ValueError):
            parse_thresholds(["nonsense"])

    def test_resolution_order(self):
        thresholds = {"time": 2.0, "prove_seconds": 1.0,
                      "dlrm.prove_seconds": 0.25}
        # exact key beats suffix beats "time" beats deterministic default
        assert _threshold_for("dlrm.prove_seconds", thresholds) == 0.25
        assert _threshold_for("mnist.prove_seconds", thresholds) == 1.0
        assert _threshold_for("mnist.phase_seconds.commit", thresholds) == 2.0
        assert _threshold_for("dlrm.k", thresholds) == 0.0

    def test_timing_default(self):
        assert _threshold_for("a.prove_seconds", {}) == \
            DEFAULT_TIME_THRESHOLD
        assert _threshold_for("a.observed_ops.commitments", {}) == 0.0


class TestGate:
    def test_identical_reports_pass(self):
        report = compare_reports(prover_report(), prover_report())
        assert report.ok
        assert all(d.status == "ok" for d in report.diffs)

    def test_deterministic_increase_fails_exactly(self):
        # one extra commitment is a real circuit regression: no slack
        report = compare_reports(prover_report(commitments=10),
                                 prover_report(commitments=11))
        (bad,) = report.regressions
        assert bad.metric == "dlrm.observed_ops.commitments"
        assert not report.ok

    def test_deterministic_decrease_is_improvement(self):
        report = compare_reports(prover_report(k=9), prover_report(k=8))
        assert report.ok
        assert {d.metric for d in report.improvements} == {"dlrm.k"}

    def test_timing_within_slack_passes(self):
        report = compare_reports(prover_report(prove=1.0),
                                 prover_report(prove=1.4))
        assert report.ok  # +40% < default +50%

    def test_timing_beyond_slack_fails(self):
        report = compare_reports(prover_report(prove=1.0),
                                 prover_report(prove=1.6))
        assert not report.ok
        assert any(d.metric == "dlrm.prove_seconds"
                   for d in report.regressions)

    def test_threshold_override_loosens_gate(self):
        report = compare_reports(prover_report(prove=1.0),
                                 prover_report(prove=3.0),
                                 thresholds={"time": 4.0})
        assert report.ok

    def test_missing_metric_is_a_regression(self):
        current = prover_report()
        del current["models"][0]["observed_ops"]["ntt_base"]
        report = compare_reports(prover_report(), current)
        (bad,) = report.regressions
        assert bad.status == "missing"
        assert bad.metric == "dlrm.observed_ops.ntt_base"

    def test_new_metric_is_informational(self):
        current = prover_report()
        current["models"][0]["observed_ops"]["extra"] = 3
        report = compare_reports(prover_report(), current)
        assert report.ok
        assert any(d.status == "new" for d in report.diffs)

    def test_throughput_drop_beyond_slack_fails(self):
        # higher-is-better: the gate flips to catch *decreases*
        base = {"runs": [{"mode": "service", "throughput_rps": 30.0}]}
        report = compare_reports(
            base, {"runs": [{"mode": "service", "throughput_rps": 15.0}]})
        assert not report.ok
        (bad,) = report.regressions
        assert bad.metric == "runs.0.throughput_rps"
        assert "limit -" in bad.render()

    def test_throughput_drop_within_slack_passes(self):
        base = {"runs": [{"throughput_rps": 30.0}]}
        report = compare_reports(base, {"runs": [{"throughput_rps": 25.0}]})
        assert report.ok  # -17% is inside the default 50% slack

    def test_throughput_increase_is_improvement_not_regression(self):
        base = {"runs": [{"speedup_vs_independent": 2.0,
                          "mean_occupancy": 4.0}]}
        current = {"runs": [{"speedup_vs_independent": 9.0,
                             "mean_occupancy": 8.0}]}
        report = compare_reports(base, current)
        assert report.ok
        assert {d.metric for d in report.improvements} == {
            "runs.0.speedup_vs_independent", "runs.0.mean_occupancy"}

    def test_occupancy_collapse_fails(self):
        base = {"runs": [{"mean_occupancy": 8.0}]}
        report = compare_reports(base, {"runs": [{"mean_occupancy": 1.0}]})
        assert not report.ok

    def test_render_and_dict(self):
        report = compare_reports(prover_report(commitments=10),
                                 prover_report(commitments=12),
                                 baseline_path="b.json")
        text = report.render()
        assert "REGRESSED" in text and "b.json" in text
        doc = report.as_dict()
        assert doc["schema"] == "zkml-regress/v1"
        assert doc["ok"] is False
        assert doc["regressions"] == ["dlrm.observed_ops.commitments"]


class TestCompareFiles:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compare_files(self, tmp_path):
        base = self.write(tmp_path, "base.json", prover_report())
        cur = self.write(tmp_path, "cur.json", prover_report(commitments=11))
        report = compare_files(base, cur)
        assert not report.ok
        assert report.baseline_path == base

    def test_regress_script_exit_codes(self, tmp_path):
        base = self.write(tmp_path, "base.json", prover_report())
        good = self.write(tmp_path, "good.json", prover_report())
        bad = self.write(tmp_path, "bad.json", prover_report(commitments=11))
        script = "benchmarks/regress.py"
        ok = subprocess.run([sys.executable, script, base, good],
                            capture_output=True, text=True)
        assert ok.returncode == 0, ok.stdout + ok.stderr
        out = str(tmp_path / "diff.json")
        fail = subprocess.run(
            [sys.executable, script, base, bad, "--json", out],
            capture_output=True, text=True)
        assert fail.returncode == 1
        assert "REGRESSED" in fail.stdout
        doc = json.loads(open(out).read())
        assert doc["ok"] is False


class TestCommittedServeBaseline:
    def test_gates_nothing_that_depends_on_the_host_or_the_schedule(self):
        # every non-timing numeric leaf of a baseline is gated exactly
        # (an increase or a vanished key fails), so the committed serve
        # baseline must not carry the runner's cpu_count, the cluster
        # speedup it allows, or which worker happened to be idle first
        base = json.load(open("benchmarks/baselines/BENCH_serve.baseline.json"))
        gated = flatten_metrics(base)
        assert not [m for m in gated if "cpu_count" in m or "per_worker" in m
                    or m.endswith("speedup_vs_one_worker")]
        # the same report from a 4-core runner whose scheduler handed
        # worker 0 every batch still passes
        cur = json.load(open("BENCH_serve.json"))
        cur["config"]["cpu_count"] = cur["cluster"]["cpu_count"] = 4
        two_workers = cur["cluster"]["runs"][1]
        two_workers["speedup_vs_one_worker"] = 1.7
        two_workers["per_worker"] = {"0": two_workers["per_worker"]["0"]}
        two_workers["per_worker"]["0"]["batches"] = 4
        assert compare_reports(base, cur, {"time": 4.0}).ok
