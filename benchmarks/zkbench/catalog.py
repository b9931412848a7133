"""The names zkbench measures: workloads, end-to-end metrics, per-layer metrics.

This module is the single source for every name the runner emits.
``run.py --manifest`` prints the top-level ``BENCHMARK.json`` from it, and
``tests/zkbench`` fails when the committed file and this catalog disagree.

A per-layer metric's prefix is the module under ``src/repro/`` whose work
it measures.  ``moves`` records, before anyone measures, which end-to-end
metric the layer metric should move and on which workload (see README,
"How the metrics interact").
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 16

#: How the driver invokes the benchmark (from the root of a checkout).
COMMAND = ["python3", "benchmarks/zkbench/run.py"]

#: Directories that hold the benchmark and nothing else.
PATHS = ["benchmarks/zkbench", "tests/zkbench"]

#: The eight zoo models, in the order ``optimizer.best_*`` metrics list them.
ZOO_MODELS = ("diffusion", "dlrm", "gpt2", "mnist", "mobilenet", "resnet18",
              "twitter", "vgg16")

WORKLOADS: Dict[str, str] = {
    "zoo-cold": "six mini zoo models, pk cache bypassed: every op pays "
                "synthesis, keygen, prove and encode (paper Table 6 shape)",
    "deep-k": "mnist and gpt2 forced to k=12 with proving keys cached: the "
              "prover kernels are the op, synthesis and keygen are not",
    "verify-mixed": "envelopes of four models, every fifth tampered: the "
                    "verifier, envelope decoder and registry, with known "
                    "answers",
    "serve-stream": "open loop at half of capacity: the latency budget of "
                    "one served request; batching is bypassed (one request "
                    "per batch)",
    "serve-saturated": "open loop above capacity: sustained throughput "
                       "under a backlog, where the coalescing policy and "
                       "pk cache decide the number",
    "optimize-zoo": "Algorithm 1 over the eight paper-scale specs: the only "
                    "user of the optimizer and cost model; layouts are "
                    "exact known answers",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    definition: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports plus the median set-up pass: model build, warm-up, "
             "keygen, registry publish, service start"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "ops that completed and passed the correctness check, over the "
             "timed wall: the sum of the op latencies (closed loop, one "
             "caller; the clock stops while an output is checked) or of "
             "the episode walls, first due time to last completion (open "
             "loop)"),
    EndToEnd("op_p50_s", "s", "lower", 0.25,
             "median latency of all ops of the run; open-loop ops are timed "
             "from their due time"),
    EndToEnd("op_mean_s", "s", "lower", 0.25,
             "mean of the same latencies: what a stall, pause or cache "
             "rebuild moves when it hits too few ops to move the median"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20,
             "ru_maxrss of the workload process, children included"),
    EndToEnd("envelope_kb_per_op", "KB", "lower", 0.02,
             "mean size of the proof artefact an op produced (prove, "
             "serve), consumed (verify) or predicted (optimize: the "
             "chosen layout's estimated proof size)"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "<end-to-end metric> on <workload>" this metric should move.
    moves: str


def _optimizer_choices() -> List[PerLayer]:
    out = []
    for model in ZOO_MODELS:
        out.append(PerLayer("optimizer.best_k.%s" % model, "count", "lower",
                            "op_p50_s on optimize-zoo"))
        out.append(PerLayer("optimizer.best_cols.%s" % model, "count",
                            "lower", "op_p50_s on optimize-zoo"))
    return out


PER_LAYER: List[PerLayer] = [
    PerLayer("compiler.synthesize_s", "s", "lower", "ops_per_s on zoo-cold"),
    PerLayer("compiler.rows_used", "count", "lower", "ops_per_s on zoo-cold"),
    PerLayer("compiler.k", "count", "lower", "ops_per_s on zoo-cold"),
    PerLayer("halo2.keygen_s", "s", "lower",
             "ops_per_s on zoo-cold; setup_s on deep-k"),
    PerLayer("halo2.prove_s", "s", "lower", "op_p50_s on deep-k"),
    PerLayer("halo2.commit_s", "s", "lower", "op_p50_s on deep-k"),
    PerLayer("halo2.helpers_s", "s", "lower", "op_p50_s on deep-k"),
    PerLayer("halo2.quotient_s", "s", "lower", "op_p50_s on deep-k"),
    PerLayer("halo2.openings_s", "s", "lower", "op_p50_s on deep-k"),
    PerLayer("halo2.verify_s", "s", "lower", "ops_per_s on verify-mixed"),
    PerLayer("halo2.lookup_passes", "count", "lower", "op_p50_s on deep-k"),
    PerLayer("halo2.sparsity_skips", "count", "higher", "op_p50_s on deep-k"),
    PerLayer("field.ntt_base", "count", "lower", "op_p50_s on deep-k"),
    PerLayer("field.ntt_extended", "count", "lower", "op_p50_s on deep-k"),
    PerLayer("field.ntt_plan_hits", "count", "higher", "op_p50_s on deep-k"),
    PerLayer("field.ntt_us_k13", "us", "lower", "op_p50_s on deep-k"),
    PerLayer("field.batch_inv_us_k13", "us", "lower", "op_p50_s on deep-k"),
    PerLayer("commit.commitments", "count", "lower", "op_p50_s on deep-k"),
    PerLayer("commit.openings", "count", "lower",
             "envelope_kb_per_op on deep-k"),
    PerLayer("commit.merkle_leaf_hashes", "count", "lower",
             "op_p50_s on deep-k"),
    PerLayer("commit.merkle_node_hashes", "count", "lower",
             "op_p50_s on deep-k"),
    PerLayer("commit.transcript_absorbs", "count", "lower",
             "op_p50_s on deep-k"),
    PerLayer("commit.commit_us_k13", "us", "lower", "op_p50_s on deep-k"),
    PerLayer("envelope.encode_s", "s", "lower", "ops_per_s on zoo-cold"),
    PerLayer("envelope.bytes", "B", "lower",
             "envelope_kb_per_op on zoo-cold"),
    PerLayer("envelope.decode_s", "s", "lower", "ops_per_s on verify-mixed"),
    PerLayer("envelope.reject_s", "s", "lower", "ops_per_s on verify-mixed"),
    PerLayer("registry.publish_s", "s", "lower", "setup_s on verify-mixed"),
    PerLayer("registry.get_s", "s", "lower", "ops_per_s on verify-mixed"),
    PerLayer("runtime.unattributed_s", "s", "lower", "ops_per_s on zoo-cold"),
    PerLayer("perf.pk_cache_hits", "count", "higher",
             "ops_per_s on serve-saturated"),
    PerLayer("perf.pk_cache_misses", "count", "lower",
             "ops_per_s on serve-saturated"),
    PerLayer("perf.pk_cache_hit_share", "ratio", "higher",
             "ops_per_s on serve-saturated"),
    PerLayer("perf.pk_cache_get_s", "s", "lower", "op_p50_s on deep-k"),
    PerLayer("serve.queue_s", "s", "lower", "op_p50_s on serve-stream"),
    PerLayer("serve.batch_prove_s", "s", "lower", "op_p50_s on serve-stream"),
    PerLayer("serve.slot_prove_s", "s", "lower",
             "ops_per_s on serve-saturated"),
    PerLayer("serve.keygen_s", "s", "lower", "op_p50_s on serve-stream"),
    PerLayer("serve.unattributed_s", "s", "lower",
             "op_p50_s on serve-stream"),
    PerLayer("serve.batches", "count", "lower",
             "ops_per_s on serve-saturated"),
    PerLayer("serve.mean_occupancy", "ratio", "higher",
             "ops_per_s on serve-saturated"),
    PerLayer("serve.padded_slot_share", "ratio", "lower",
             "ops_per_s on serve-saturated"),
    PerLayer("serve.rejected", "count", "lower",
             "failed ops on serve-saturated"),
    PerLayer("serve.generator_late_s", "s", "lower",
             "validity of op_p50_s on serve-stream"),
    PerLayer("serve.verify_unattributed_s", "s", "lower",
             "ops_per_s on verify-mixed"),
    PerLayer("optimizer.optimize_s", "s", "lower", "op_p50_s on optimize-zoo"),
    PerLayer("optimizer.layouts_evaluated", "count", "lower",
             "op_p50_s on optimize-zoo"),
    *_optimizer_choices(),
    PerLayer("optimizer.fft_count_ratio", "ratio", "lower",
             "none: quality of the paper's section 9.5 claim, on zoo-cold"),
    PerLayer("optimizer.rank_tau", "ratio", "higher",
             "none: quality of the paper's section 9.5 claim, on zoo-cold"),
    PerLayer("obs.tracer_overhead_share", "ratio", "lower",
             "op_p50_s on every workload, when telemetry is on"),
    PerLayer("obs.attribution_gap_share", "ratio", "lower",
             "none: how far the layer times are from summing to the op"),
    PerLayer("obs.machine_speed_factor", "ratio", "lower",
             "none: how slow the box ran against nominal during the traced "
             "run, whose times are wall seconds and not divided by it"),
    PerLayer("resilience.retries", "count", "lower",
             "must be 0: non-zero marks the run invalid"),
    PerLayer("resilience.degraded", "count", "lower",
             "must be 0: non-zero marks the run invalid"),
    PerLayer("resilience.recovered", "count", "lower",
             "must be 0: non-zero marks the run invalid"),
    PerLayer("latency.op_p90_s", "s", "lower",
             "tail of op_p50_s on verify-mixed and serve-*"),
    PerLayer("latency.samples", "count", "higher",
             "sample count behind op_p50_s, op_mean_s and latency.op_p90_s"),
    PerLayer("latency.failed_share", "ratio", "lower",
             "failed ops over attempted ops; must be 0"),
]

END_TO_END_UNITS = {m.name: m.unit for m in END_TO_END}
PER_LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}


def manifest() -> Dict[str, object]:
    """The top-level ``BENCHMARK.json``, to the driver's contract."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
