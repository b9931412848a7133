"""Layer-by-layer drives for the traced run.

The end-to-end run times whole ops through the public entry points; the
traced run drives the same inputs through each layer's own function, from
this file, with a benchmark span around each call.  Nothing under
``src/`` is instrumented for it.

These are lower-level names than the end-to-end API and may move.  When
one has gone, :func:`lower_api` records why and the drives are skipped:
their metrics are left out and the reason is written to the trace file,
so a refactor does not fail the run.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Dict, Optional

import numpy as np

from zkbench.harness import Layers, SpanLog, seconds_of

SCHEME = "kzg"
NUM_COLS = 10
SCALE_BITS = 5

#: ``obs.stats.STATS`` field -> per-layer metric.
STAT_NAMES = {
    "ntt_base": "field.ntt_base",
    "ntt_extended": "field.ntt_extended",
    "ntt_plan_hits": "field.ntt_plan_hits",
    "commitments": "commit.commitments",
    "openings": "commit.openings",
    "merkle_leaf_hashes": "commit.merkle_leaf_hashes",
    "merkle_node_hashes": "commit.merkle_node_hashes",
    "transcript_absorbs": "commit.transcript_absorbs",
    "lookup_passes": "halo2.lookup_passes",
    "sparsity_skips": "halo2.sparsity_skips",
}

#: Prover phase (``PhaseTimer`` key) -> per-layer metric.
PHASE_NAMES = {
    "commit": "halo2.commit_s",
    "helpers": "halo2.helpers_s",
    "quotient": "halo2.quotient_s",
    "openings": "halo2.openings_s",
}


def lower_api(layers: Layers) -> Optional[SimpleNamespace]:
    """The per-layer functions the drives call, or ``None`` with the
    reason recorded when one of them no longer exists."""
    try:
        from repro.commit import scheme_by_name
        from repro.compiler import synthesize_model
        from repro.envelope import ProofEnvelope, envelope_config_digest
        from repro.field import GOLDILOCKS, EvaluationDomain
        from repro.halo2 import create_proof, keygen
        from repro.halo2.proof import proof_to_bytes
        from repro.obs.stats import STATS
        from repro.optimizer import R6I_8XLARGE, estimate_cost
        from repro.perf.pkcache import GLOBAL_PK_CACHE
        from repro.perf.timer import PhaseTimer
    except ImportError as exc:
        layers.dropped = str(exc)
        return None
    return SimpleNamespace(**locals())


@contextmanager
def counted(api: Optional[SimpleNamespace], layers: Layers, ops: int = 1):
    """Add the operation counts and pk-cache traffic of the enclosed ops,
    per op, from the counters the program keeps anyway."""
    if api is None:
        yield
        return
    cache = api.GLOBAL_PK_CACHE
    before = api.STATS.snapshot()
    hits, misses = cache.hits, cache.misses
    yield
    delta = api.STATS.delta(before)
    for stat, name in STAT_NAMES.items():
        layers.add(name, delta[stat] / ops)
    layers.add("perf.pk_cache_hits", (cache.hits - hits) / ops)
    layers.add("perf.pk_cache_misses", (cache.misses - misses) / ops)


def _median_us(call, repeats: int) -> float:
    call()  # plans and tables are built on first use
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def run_probes(api: SimpleNamespace, layers: Layers, repeats: int) -> None:
    """One public transform, inversion and commitment on 2^13 elements:
    the unit costs the ``field.*`` and ``commit.*`` counts multiply."""
    domain = api.EvaluationDomain(api.GOLDILOCKS, 13)
    values = np.random.default_rng(13).integers(1, 2 ** 62, size=1 << 13)
    vec = domain.backend.from_ints([int(v) for v in values])
    scheme = api.scheme_by_name(SCHEME, api.GOLDILOCKS)
    layers.add("field.ntt_us_k13",
               _median_us(lambda: domain.lagrange_to_coeff_vec(vec), repeats))
    layers.add("field.batch_inv_us_k13",
               _median_us(lambda: domain.backend.batch_inv(vec), repeats))
    layers.add("commit.commit_us_k13",
               _median_us(lambda: scheme.commit(vec), repeats))


def drive_prove(api: SimpleNamespace, layers: Layers, spans: SpanLog,
                op: str, spec, inputs, k: Optional[int],
                use_pk_cache: bool) -> Dict[str, object]:
    """Synthesize, key, prove and encode one inference, layer by layer.

    Mirrors what ``prove_model`` + ``envelope_bytes`` do for the same
    arguments.  Returns the span seconds of the parts (for the closed
    sum) and the physical layout.
    """
    scheme = api.scheme_by_name(SCHEME, api.GOLDILOCKS)
    with spans.span("compiler.synthesize", op) as synth_span:
        synth = api.synthesize_model(spec, inputs, num_cols=NUM_COLS,
                                     scale_bits=SCALE_BITS, k=k)
        for name in spec.outputs:
            synth.builder.expose(synth.outputs[name].entries())
    builder = synth.builder
    if use_pk_cache:
        with spans.span("perf.pk_cache_get", op) as key_span:
            pk, vk, _hit = api.GLOBAL_PK_CACHE.get_or_create(
                builder.cs, builder.asg, scheme)
        layers.add("perf.pk_cache_get_s", seconds_of(key_span))
    else:
        with spans.span("halo2.keygen", op) as key_span:
            pk, vk = api.keygen(builder.cs, builder.asg, scheme)
        layers.add("halo2.keygen_s", seconds_of(key_span))
    timer = api.PhaseTimer()
    with spans.span("halo2.prove", op) as prove_span:
        proof = api.create_proof(pk, builder.asg, scheme, timer=timer)
    with spans.span("envelope.encode", op) as encode_span:
        data = api.ProofEnvelope(
            scheme_name=SCHEME, model=spec.name, vk_hash=vk.digest(),
            config_digest=api.envelope_config_digest(
                NUM_COLS, SCALE_BITS, builder.k, None),
            instance=builder.asg.instance_values(),
            proof_bytes=api.proof_to_bytes(proof)).encode()

    layers.add("compiler.synthesize_s", seconds_of(synth_span))
    layers.add("compiler.rows_used", builder.rows_used)
    layers.add("compiler.k", builder.k)
    layers.add("halo2.prove_s", seconds_of(prove_span))
    for phase, name in PHASE_NAMES.items():
        layers.add(name, timer.seconds.get(phase, 0.0))
    layers.add("envelope.encode_s", seconds_of(encode_span))
    layers.add("envelope.bytes", len(data))
    return {
        "synthesize_s": seconds_of(synth_span),
        "key_s": seconds_of(key_span),
        "prove_s": seconds_of(prove_span),
        "encode_s": seconds_of(encode_span),
        # one fixed hardware profile, so models rank against each other
        "predicted_s": api.estimate_cost(synth.layout, api.R6I_8XLARGE,
                                         SCHEME).total,
    }
