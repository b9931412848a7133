"""Smoke test of the zkbench benchmark at ``--scale tiny``.

Runs every workload once on the smallest model (traced, which also runs
each op end to end with tracing off) and checks the benchmark's own
promises: every declared metric appears under its
declared unit, ``BENCHMARK.json`` names exactly what the runner emits,
tampered envelopes are rejected, and a wrong known answer shows up as a
failed op.
"""

import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

from zkbench import catalog  # noqa: E402
from zkbench.compare import compare_files  # noqa: E402
from zkbench.harness import Recorder  # noqa: E402
from zkbench.workloads import (  # noqa: E402
    SCALES,
    Context,
    VerifyMixed,
    run_workload,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_context(tmp_root, **overrides):
    return Context(seed=0, seconds=1.0, scale=SCALES["tiny"],
                   tmp_root=str(tmp_root), **overrides)


#: Runs untraced, the others traced: it shares all its code with
#: ``serve-stream`` and differs in two constants.  Tests below run
#: ``verify-mixed`` and ``optimize-zoo`` untraced as well.
UNTRACED = "serve-saturated"


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("zkbench")
    return {(name, trace): run_workload(name, tiny_context(root, trace=trace))
            for name in catalog.WORKLOADS
            for trace in [name != UNTRACED]}


def test_every_workload_emits_declared_metrics_only(tiny_runs):
    exercised = set()
    for (name, trace), result in tiny_runs.items():
        metrics = result["metrics"]
        if trace:
            assert set(metrics) <= set(catalog.PER_LAYER_UNITS), name
            exercised |= set(metrics)
        else:
            assert set(metrics) == set(catalog.END_TO_END_UNITS), name
            assert all(v > 0 for v in metrics.values()), name
        assert all(math.isfinite(v) for v in metrics.values())
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"], (name, trace)
        assert not result["dropped"], result["dropped"]
    # a metric is left out where its layer does no work, never written as 0:
    # the optimizer's choices appear on optimize-zoo and nowhere else
    assert "optimizer.best_k.dlrm" in tiny_runs[("optimize-zoo", True)]["metrics"]
    assert "optimizer.best_k.dlrm" not in tiny_runs[("deep-k", True)]["metrics"]
    # everything declared is emitted somewhere, but for what one tiny model
    # cannot give: a ranking over models and the other models' layouts
    missing = set(catalog.PER_LAYER_UNITS) - exercised
    assert all(name == "optimizer.rank_tau"
               or name.startswith(("optimizer.best_k.", "optimizer.best_cols."))
               for name in missing), missing


def test_traced_runs_attribute_the_op_and_stay_clean(tiny_runs):
    for (name, trace), result in tiny_runs.items():
        if not trace:
            continue
        metrics = result["metrics"]
        assert metrics["resilience.retries"] == 0
        assert metrics["resilience.degraded"] == 0
        assert metrics["resilience.recovered"] == 0
        assert metrics["latency.failed_share"] == 0
        assert metrics["latency.samples"] >= 1
    zoo = tiny_runs[("zoo-cold", True)]["metrics"]
    assert zoo["halo2.prove_s"] > 0 and zoo["halo2.keygen_s"] > 0
    assert zoo["perf.pk_cache_hits"] == 0
    deep = tiny_runs[("deep-k", True)]["metrics"]
    assert deep["perf.pk_cache_hit_share"] == 1.0
    assert deep["compiler.k"] == SCALES["tiny"].deep_k
    assert tiny_runs[("deep-k", True)]["spans"]


def test_throughput_is_passed_ops_over_the_timed_wall():
    rec = Recorder()
    for seconds in (1, 1, 1, 5, 5):
        rec.op("a", seconds, True, 1024)
    rec.op("a", 7, False, 1024)  # completed, wrong output
    rec.fail()                   # raised: no latency, no wall
    rec.fail()
    metrics = rec.end_to_end(setup_s=1.0)
    assert rec.attempted == 8 and rec.failed == 3
    assert metrics["ops_per_s"] == 5 / 20
    assert metrics["op_p50_s"] == 3.0 and metrics["op_mean_s"] == 20 / 6


def test_tampered_envelopes_are_rejected(tiny_runs, tmp_path):
    workload = VerifyMixed(tiny_context(tmp_path))
    workload.good = {"dlrm": bytes(4096)}  # the plan needs only a length
    plan = workload.plan(0)
    assert [kind for kind, _, answer in plan if not answer] == [
        "flipped", "truncated"]
    # every verdict matched its known answer, so each tampered envelope
    # was rejected with a typed cause and each intact one accepted
    result = tiny_runs[("verify-mixed", True)]
    assert result["attempted"] == len(plan) and result["failed"] == 0
    assert "envelope.reject_s" in result["metrics"]


def test_wrong_known_answer_counts_as_failed(tmp_path):
    ctx = tiny_context(tmp_path, wrong_answer=True)
    result = run_workload("verify-mixed", ctx)
    assert result["failed"] >= 1 and not result["correct"]


def test_benchmark_json_matches_the_catalog():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalog.manifest()
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"]]
    names += [m["name"] for m in manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in manifest["end_to_end"])


def test_command_line_prints_the_result_object_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/zkbench/run.py"),
         "--workload", "optimize-zoo", "--scale", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for name, unit in catalog.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert not list(tmp_path.iterdir())  # nothing left behind


def _result_file(path, ops_per_s, failed=0, attempted=10):
    entry = {"attempted": [attempted], "failed": [failed], "end_to_end": {
        m.name: {"unit": m.unit, "values": [1.0] * len(ops_per_s)}
        for m in catalog.END_TO_END}}
    entry["end_to_end"]["ops_per_s"]["values"] = ops_per_s
    path.write_text(json.dumps({"workloads": {"zoo-cold": entry}}))
    return str(path)


def test_compare_says_ok_worse_and_unresolved(tmp_path):
    base = _result_file(tmp_path / "a.json", [10.0, 10.1, 9.9])
    same = _result_file(tmp_path / "b.json", [10.05, 9.95, 10.0])
    slow = _result_file(tmp_path / "c.json", [5.0, 5.05, 4.95])
    noisy = _result_file(tmp_path / "d.json", [4.0, 9.0, 14.0])
    single = _result_file(tmp_path / "e.json", [10.0])
    broken = _result_file(tmp_path / "f.json", [10.0, 10.0, 10.0], failed=1)
    diluted = _result_file(tmp_path / "g.json", [10.0, 10.0, 10.0], failed=1,
                           attempted=20)

    def verdicts(base, other, metric="ops_per_s"):
        out = io.StringIO()
        status = compare_files(base, other, out)
        line = next(l for l in out.getvalue().splitlines()
                    if " %s " % metric in l)
        return status, line.split()[-1]

    assert verdicts(base, same) == (0, "ok")
    assert verdicts(base, slow) == (1, "worse")
    # too noisy or too few runs to tell: never a pass
    assert verdicts(base, noisy) == (2, "unresolved")
    assert verdicts(base, single) == (2, "unresolved")
    # failures are compared as a share of the ops attempted
    assert verdicts(base, broken, "failed_share") == (1, "worse")
    assert verdicts(broken, diluted, "failed_share") == (0, "ok")
    assert verdicts(diluted, broken, "failed_share") == (1, "worse")
