"""``zkml bench`` is zkbench's front: argv forwarded, views projected.

Nothing here proves anything or runs a workload; the benchmark's own
behaviour is ``tests/zkbench``'s subject.
"""

import json
import statistics
from pathlib import Path

from repro import cli
from repro.perf.views import VIEW_SCHEMA, project_views, write_views

ROOT = Path(__file__).resolve().parents[2]


def test_bench_forwards_argv_and_exit_code(tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)  # the checkout is found from cli.py, not cwd
    assert cli.main(["bench", "--manifest"]) == 0
    assert capfd.readouterr().out == (ROOT / "BENCHMARK.json").read_text()
    # an option zkbench does not know is zkbench's error, with its exit code
    assert cli.main(["bench", "--quick"]) == 2
    assert "unrecognized arguments: --quick" in capfd.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no result file, so no views


def test_bench_without_a_checkout_is_one_typed_line(monkeypatch, capfd):
    monkeypatch.setattr(cli, "ZKBENCH_RUN", "/nonexistent/zkbench/run.py")
    assert cli.main(["bench", "--manifest"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "error=ResilienceError" in err


def metric(unit, values):
    return {"unit": unit, "values": values}


def test_views_are_projections_of_the_result_file(tmp_path):
    result = {
        "schema": "zkbench-result/v1", "seed": 4, "runs": 3, "seconds": 2.0,
        "scale": "full", "claim": None,
        "workloads": {
            "deep-k": {
                # three end-to-end runs, then one traced run
                "attempted": [8, 8, 6, 2], "failed": [0, 1, 0, 0],
                "end_to_end": {"op_p50_s": metric("s", [0.3, 0.1, 0.2]),
                               "ops_per_s": metric("1/s", [5.0, 9.0])},
                "per_layer": {"field.ntt_base": metric("count", [55.0])},
            },
            "serve-stream": {
                "attempted": [6], "failed": [0],
                "end_to_end": {"op_p50_s": metric("s", [0.25])},
                "per_layer": {},
            },
            "optimize-zoo": {
                "attempted": [8], "failed": [0],
                "end_to_end": {"op_p50_s": metric("s", [1.5])},
                "per_layer": {},
            },
        },
    }
    path = tmp_path / "some.result.json"
    path.write_text(json.dumps(result))
    written = write_views(str(path))
    # verify-mixed did not run: its view is not written, let alone invented
    assert sorted(Path(p).name for p in written) == [
        "BENCH_prover.json", "BENCH_serve.json"]
    assert not (tmp_path / "BENCH_verify.json").exists()

    prover = json.loads((tmp_path / "BENCH_prover.json").read_text())
    assert prover == project_views(result)["BENCH_prover.json"]
    assert prover["schema"] == VIEW_SCHEMA
    assert (prover["source"], prover["seed"], prover["runs"]) == (
        "zkbench-result/v1", 4, 3)
    # zoo-cold is missing from the result, so it is missing from the view
    assert list(prover["workloads"]) == ["deep-k"]
    deep = prover["workloads"]["deep-k"]
    assert (deep["attempted"], deep["failed"]) == (24, 1)
    for section in ("end_to_end", "per_layer"):
        source = result["workloads"]["deep-k"][section]
        assert deep[section] == {
            name: {"unit": slot["unit"], "runs": len(slot["values"]),
                   "median": statistics.median(slot["values"])}
            for name, slot in source.items()}
    assert deep["end_to_end"]["op_p50_s"]["median"] == 0.2
    assert deep["end_to_end"]["ops_per_s"]["median"] == 7.0

    serve = json.loads((tmp_path / "BENCH_serve.json").read_text())
    assert list(serve["workloads"]) == ["serve-stream"]
    assert "per_layer" not in serve["workloads"]["serve-stream"]  # untraced
    # no view takes optimize-zoo
    assert all("optimize-zoo" not in view["workloads"]
               for view in project_views(result).values())
