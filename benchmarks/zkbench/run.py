"""zkbench command line.

Three ways to run it, all from the root of a checkout::

    # one workload in this process; the last line of stdout is the result
    python3 benchmarks/zkbench/run.py --workload deep-k --seed 0 \
        --seconds 16 --trace 0

    # the whole suite, one fresh subprocess per workload, never two at once
    python3 benchmarks/zkbench/run.py --seed 0 [--traced] [--runs 3]

    # judge one result file against another with the catalog's bounds
    python3 benchmarks/zkbench/run.py --compare A.json B.json
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # before the imports set-up pays for

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))  # benchmarks/, for the package
sys.path.insert(0, str(HERE.parents[2] / "src"))  # the program under test

from zkbench import catalog  # noqa: E402

RESULT_SCHEMA = "zkbench-result/v1"
TRACE_FILE = "zkbench.trace.json"


def run_one(args) -> int:
    """Contract mode: run one workload here and print its result."""
    try:
        from zkbench.workloads import SCALES, Context, run_workload
    except ImportError as exc:
        sys.stderr.write("zkbench: cannot import the program under test "
                         "(is src/ in this checkout?): %s\n" % exc)
        return 2
    import_seconds = time.perf_counter() - PROCESS_START
    tmp_root = tempfile.mkdtemp(prefix=".zkbench-tmp-", dir=os.getcwd())
    try:
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      scale=SCALES[args.scale], tmp_root=tmp_root,
                      trace=bool(args.trace))
        result = run_workload(args.workload, ctx, import_seconds)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    units = catalog.PER_LAYER_UNITS if args.trace else catalog.END_TO_END_UNITS
    metrics = result["metrics"]
    if args.trace:
        with open(TRACE_FILE, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "dropped": result["dropped"],
                       "import_seconds": result["import_seconds"],
                       "setup_passes": result["setup_passes"],
                       "per_layer": metrics,
                       "spans": result["spans"]}, fh)
    print("%s seed=%d: %d ops attempted, %d failed, %d latency samples" % (
        args.workload, args.seed, result["attempted"], result["failed"],
        result["samples"]))
    print("  %-28s %14.6g ratio" % (
        "failed_share", result["failed"] / result["attempted"]))
    for name, value in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, units[name]))
    if len(metrics) < len(units):
        print("  %d per-layer metrics are not exercised by this workload"
              % (len(units) - len(metrics)))
    if result["dropped"]:
        print("  layer drives skipped: %s" % result["dropped"])
    # the driver wants every declared name on every run: a per-layer metric
    # this workload does not exercise reads 0 on this line and nowhere else
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", scale],
        stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("zkbench: %s exited %d" % (workload,
                                                    proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        # the traced child has just written which layers it exercised
        with open(TRACE_FILE) as fh:
            exercised = json.load(fh)["per_layer"]
        result["metrics"] = {name: metric
                             for name, metric in result["metrics"].items()
                             if name in exercised}
    return result


def run_suite(args) -> int:
    """Every workload, one after another, each in a fresh subprocess."""
    report = {"schema": RESULT_SCHEMA, "seed": args.seed, "runs": args.runs,
              "seconds": args.seconds, "scale": args.scale, "claim": None,
              "workloads": {}}
    failed = 0
    for workload in catalog.WORKLOADS:
        entry = {"attempted": [], "failed": [], "end_to_end": {},
                 "per_layer": {}}
        passes = [(0, "end_to_end", args.seconds)]
        if args.traced:
            passes.append((1, "per_layer", args.seconds / 3))
        for trace, section, seconds in passes:
            for run in range(args.runs):
                result = run_child(workload, args.seed + run, seconds, trace,
                                   args.scale)
                entry["attempted"].append(result["attempted"])
                entry["failed"].append(result["failed"])
                for name, metric in result["metrics"].items():
                    slot = entry[section].setdefault(
                        name, {"unit": metric["unit"], "values": []})
                    slot["values"].append(metric["value"])
        failed += sum(entry["failed"])
        report["workloads"][workload] = entry
        print("%s: %d ops attempted, %d failed" % (
            workload, sum(entry["attempted"]), sum(entry["failed"])))
        print("  %-28s %14.6g ratio" % (
            "failed_share", sum(entry["failed"]) / sum(entry["attempted"])))
        for section in ("end_to_end", "per_layer"):
            for name, slot in entry[section].items():
                print("  %-28s %14.6g %-6s (median of %d)" % (
                    name, statistics.median(slot["values"]), slot["unit"],
                    len(slot["values"])))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print("wrote %s" % args.out)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also run every workload traced, at a "
                             "third of the length, for per-layer metrics")
    parser.add_argument("--runs", type=int, default=3,
                        help="suite: runs per workload, seeds SEED..; "
                             "--compare calls fewer than 3 unresolved")
    parser.add_argument("--out", default="zkbench.result.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"))
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json from the catalog")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.compare:
        from zkbench.compare import compare_files
        return compare_files(args.compare[0], args.compare[1], sys.stdout)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
