"""Standalone prover benchmark (thin wrapper over ``repro.perf.bench``).

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_prover.py [--models ...]

Proves the default mini zoo trio, prints the per-phase breakdown, and
writes ``BENCH_prover.json`` plus a Chrome trace and a Prometheus
metrics file next to it.  The script exits non-zero if the run recorded
any resilience event (retry / degradation / rebuild) — a clean benchmark
must not be measuring a fallback path.  Same engine as ``zkml bench``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.perf.bench import DEFAULT_MODELS, run_bench


def _sibling(path: str, suffix: str) -> str:
    root, _ = os.path.splitext(path)
    return root + suffix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS))
    parser.add_argument("--backend", default="kzg", choices=["kzg", "ipa"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_prover.json")
    parser.add_argument("--trace", default=None,
                        help="Chrome trace output (default: <out>.trace.json)")
    parser.add_argument("--metrics", default=None,
                        help="metrics output (default: <out>.metrics.prom)")
    args = parser.parse_args(argv)
    out = args.out or None
    trace_path = args.trace or (out and _sibling(out, ".trace.json"))
    metrics_path = args.metrics or (out and _sibling(out, ".metrics.prom"))
    report = run_bench(
        models=args.models,
        scheme_name=args.backend,
        seed=args.seed,
        output_path=out,
        trace_path=trace_path,
        metrics_path=metrics_path,
    )
    resilience = report.get("resilience", {})
    recoveries = sum(resilience.get(k, 0)
                     for k in ("degraded", "retries", "recovered"))
    if recoveries:
        # a clean benchmark run must not silently recover from anything —
        # a degradation here means the numbers measured a fallback path
        print("FAIL: %d resilience event(s) during a clean run: %s"
              % (recoveries, resilience), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
