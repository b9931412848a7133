"""Prover benchmark harness.

Proves a handful of mini zoo models end to end, records keygen / prove /
verify wall-clock plus the per-phase breakdown from the prover's
:class:`~repro.perf.timer.PhaseTimer`, and writes the result to
``BENCH_prover.json`` so the perf trajectory is tracked in-repo.

``SEED_BASELINE_SECONDS`` holds the serial prove times measured on the
repo seed (pre-vectorization) on this container's single core, with the
same deterministic inputs this harness generates; ``speedup_vs_seed``
reports current/baseline per model.

The harness doubles as the observability smoke test: pass ``trace_path``
/ ``metrics_path`` (CLI ``--trace`` / ``--metrics``) to capture the span
tree and the metrics registry for the whole run.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.halo2.proof import proof_to_bytes
from repro.model.zoo import get_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, use_tracer
from repro.resilience import events
from repro.runtime.pipeline import prove_model

#: JSON schema tag for ``BENCH_prover.json``.
SCHEMA = "zkml-bench-prover/v1"

#: Serial mini-model prove seconds measured at the repo seed (same inputs,
#: same default config: kzg, num_cols=10, scale_bits=5, rng seed 0).
SEED_BASELINE_SECONDS: Dict[str, float] = {
    "mnist": 1.69,
    "dlrm": 1.26,
    "twitter": 1.91,
}

#: Models the default bench run proves, smallest first.
DEFAULT_MODELS = ("dlrm", "mnist", "twitter")

#: The single smallest model — what ``zkml bench --quick`` proves (CI smoke).
QUICK_MODELS = ("dlrm",)


def bench_inputs(spec, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic standard-normal inputs for a model spec."""
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(shape).astype(np.float32)
        for name, shape in spec.inputs.items()
    }


def bench_model(
    name: str,
    scheme_name: str = "kzg",
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    mem: bool = False,
) -> Dict[str, object]:
    """Prove one mini zoo model and return its benchmark record."""
    spec = get_model(name, scale="mini")
    inputs = bench_inputs(spec, seed)
    result = prove_model(spec, inputs, scheme_name=scheme_name,
                         metrics=metrics)
    verify_seconds = result.verification_seconds()
    baseline = SEED_BASELINE_SECONDS.get(name)
    record: Dict[str, object] = {
        "model": name,
        "k": result.k,
        "num_cols": result.num_cols,
        "scheme": result.scheme_name,
        "keygen_seconds": round(result.keygen_seconds, 4),
        "prove_seconds": round(result.proving_seconds, 4),
        "verify_seconds": round(verify_seconds, 4),
        "phase_seconds": {
            phase: round(secs, 4) for phase, secs in result.phase_seconds.items()
        },
        # what this prover's proof serializes to, beside what a real
        # halo2 proof of the same circuit would (the paper's Table 6/7
        # number); both are deterministic and gated exactly
        "proof_bytes": len(proof_to_bytes(result.proof)),
        "modeled_proof_bytes": result.modeled_proof_bytes,
        "observed_ops": result.observed_counts,
        "predicted_ops": {
            key: round(value, 2)
            for key, value in result.predicted_counts.items()
        },
    }
    if mem and result.phase_rss_kb:
        # ru_maxrss is the process-wide peak, sampled at each phase exit:
        # monotone across phases, so the first jump marks the phase that
        # grew the footprint.
        record["phase_rss_kb"] = dict(result.phase_rss_kb)
        record["peak_rss_kb"] = max(result.phase_rss_kb.values())
    if baseline is not None:
        record["seed_baseline_seconds"] = baseline
        if result.proving_seconds > 0:
            record["speedup_vs_seed"] = round(
                baseline / result.proving_seconds, 2
            )
    return record


def run_bench(
    models: Iterable[str] = DEFAULT_MODELS,
    scheme_name: str = "kzg",
    seed: int = 0,
    output_path: Optional[str] = "BENCH_prover.json",
    stream=None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    mem: bool = False,
) -> Dict[str, object]:
    """Prove each model, print the breakdown, and write the JSON report.

    ``registry`` lets a caller (the CLI) supply its own metrics registry;
    otherwise one is created when ``metrics_path`` is set.
    """
    stream = stream if stream is not None else sys.stdout
    tracer = Tracer() if trace_path else None
    if registry is None and metrics_path:
        registry = MetricsRegistry()
    records: List[Dict[str, object]] = []
    events.reset()  # a clean bench run must report zero recoveries

    def run_all() -> None:
        for name in models:
            record = bench_model(
                name, scheme_name=scheme_name, seed=seed, metrics=registry,
                mem=mem,
            )
            records.append(record)
            print(
                "%-10s k=%-3s prove %6.2f s  keygen %5.2f s  verify %5.2f s%s"
                % (
                    record["model"],
                    record["k"],
                    record["prove_seconds"],
                    record["keygen_seconds"],
                    record["verify_seconds"],
                    "  (%.2fx vs seed)" % record["speedup_vs_seed"]
                    if "speedup_vs_seed" in record
                    else "",
                ),
                file=stream,
            )
            for phase, secs in sorted(
                record["phase_seconds"].items(), key=lambda kv: -kv[1]
            ):
                print("    %-10s %6.3f s" % (phase, secs), file=stream)
            if "peak_rss_kb" in record:
                print("    peak RSS   %6.1f MB" %
                      (record["peak_rss_kb"] / 1024.0), file=stream)

    if tracer is not None:
        with use_tracer(tracer):
            run_all()
    else:
        run_all()

    report: Dict[str, object] = {
        "schema": SCHEMA,
        "config": {
            "scheme": scheme_name,
            "seed": seed,
            "python": platform.python_version(),
        },
        "models": records,
        "total_prove_seconds": round(
            sum(r["prove_seconds"] for r in records), 4
        ),
        # retry/degradation/rebuild counts accumulated across the run — a
        # clean benchmark shows zeros; anything else means the pipeline
        # recovered from something (and the numbers are suspect)
        "resilience": events.counts(),
    }
    if registry is not None:
        events.merge_into(registry)
    if output_path:
        with open(output_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % output_path, file=stream)
    if tracer is not None and trace_path:
        tracer.write(trace_path)
        print("wrote %s" % trace_path, file=stream)
    if registry is not None and metrics_path:
        registry.write(metrics_path)
        print("wrote %s" % metrics_path, file=stream)
    return report
