"""The user-facing prove/verify pipeline (paper §8's two stages).

There is one proving pipeline, :func:`prove_batch`: it synthesizes the
circuit for one or more inferences of a materialized model spec, exposes
every slot's outputs as public inputs, runs keygen and the prover, and
measures wall-clock times.  :func:`prove_model` is that pipeline on a
batch of one.  What leaves the pipeline is the result's v2 envelope
(:meth:`ProveResult.envelope`), which a consumer checks with
:func:`repro.envelope.verify_envelope` against the published key.

Observability: every stage runs under a span on the active
:mod:`repro.obs` tracer (``prove_model -> synthesize -> layout/witness``,
``keygen``, ``prove -> commit/helpers/quotient/openings``, ``verify``;
the root is ``prove_batch`` when the proof covers several slots), and the
run's operation counts (NTTs, commitments, hashes) are captured as a
delta over :data:`repro.obs.stats.STATS` together with the counts the
key's witness-free :class:`~repro.halo2.shape.ProofShape` predicts — the
raw material for the predicted-vs-actual report.  Passing a
:class:`~repro.obs.metrics.MetricsRegistry` additionally records circuit
shape statistics and per-phase timings.

Resilience: every proof runs the same code.  A failure names the stage
it came from (``synthesize``/``keygen``/``prove``).  Proving is
deterministic, so re-running an interrupted prove reproduces the same
bytes.  Verification is strict, and strict is the only mode: malformed
proofs raise :class:`~repro.resilience.errors.ProofFormatError` and
rejections raise :class:`~repro.resilience.errors.VerificationFailure`;
nothing returns ``False``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.commit import scheme_by_name
from repro.envelope import ProofEnvelope, envelope_config_digest
from repro.compiler import SynthesizedModel, synthesize_batch
from repro.compiler.layouter import only_slot
from repro.halo2 import Proof, VerifyingKey, create_proof, keygen
from repro.halo2.proof import proof_to_bytes
from repro.halo2.verifier import verify_proof_strict
from repro.model.spec import ModelSpec
from repro.obs import metrics as obs_metrics
from repro.obs.stats import STATS
from repro.obs.trace import get_tracer
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.perf.timer import PhaseTimer
from repro.resilience.errors import (
    ProvingError,
    ResilienceError,
    region_at,
)


@dataclass
class ProveResult:
    """Everything a proving run produces: one proof covering one or more
    inference slots."""

    spec_name: str
    scheme_name: str
    proof: Proof
    vk: VerifyingKey
    #: Public inputs, one column per exposed output tensor in slot order.
    instance: List[List[int]]
    #: Each inference slot's output arrays, in batch order.
    slot_outputs: List[Dict[str, np.ndarray]]
    num_cols: int
    k: int
    scale_bits: int
    keygen_seconds: float
    proving_seconds: float
    modeled_proof_bytes: int
    #: Wall-clock seconds per prover phase (commit/helpers/quotient/openings).
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)
    #: Whether keygen was skipped via the proving-key cache.
    keygen_cache_hit: bool = False
    #: Operation counts observed during proving (NTTs, commitments, ...).
    observed_counts: Dict[str, int] = dataclass_field(default_factory=dict)
    #: The counts ``vk.shape`` predicts (``obs.metrics.predicted_counts``).
    predicted_counts: Dict[str, int] = dataclass_field(default_factory=dict)
    #: The synthesized circuit (regions, assignment), kept only when the
    #: caller passed ``keep_synthesized=True`` — the layer profiler needs
    #: it; everyone else gets ``None`` so results stay lightweight.
    synthesized: Optional[SynthesizedModel] = None
    #: Lookup-table bit width the circuit was built with (part of the
    #: envelope's config digest).
    lookup_bits: Optional[int] = None

    @property
    def batch_size(self) -> int:
        """How many inference slots the proof covers."""
        return len(self.slot_outputs)

    @property
    def outputs(self) -> Dict[str, np.ndarray]:
        """The output arrays of a single-inference proof (a multi-slot
        result raises :class:`~repro.resilience.errors.SpecError`; index
        ``slot_outputs`` instead)."""
        return only_slot(self.slot_outputs, self.spec_name)

    def envelope(self) -> ProofEnvelope:
        """Package this result as a v2 proof envelope (the consumer-facing
        format — see :mod:`repro.envelope`).  One envelope covers the
        whole batch: its instance holds every slot's columns."""
        return ProofEnvelope(
            scheme_name=self.scheme_name,
            model=self.spec_name,
            vk_hash=self.vk.digest(),
            config_digest=envelope_config_digest(
                self.num_cols, self.scale_bits, self.k, self.lookup_bits),
            instance=self.instance,
            proof_bytes=proof_to_bytes(self.proof),
        )

    def envelope_bytes(self) -> bytes:
        """The canonical serialized envelope (what ``zkml prove`` emits)."""
        return self.envelope().encode()

    def verify(self, tracer=None) -> bool:
        """The prover's self-check: verify the live proof against every
        slot's public inputs (without re-parsing the envelope bytes).

        Strict, like :func:`~repro.envelope.verify_envelope`: a malformed
        proof raises :class:`~repro.resilience.errors.ProofFormatError`
        and a rejected one raises
        :class:`~repro.resilience.errors.VerificationFailure`.
        The ``verify`` span goes to ``tracer`` (default: the process
        tracer).
        """
        scheme = scheme_by_name(self.scheme_name, self.vk.field)
        tracer = tracer if tracer is not None else get_tracer()
        with tracer.span("verify", model=self.spec_name,
                         scheme=self.scheme_name,
                         batch_size=self.batch_size):
            verify_proof_strict(self.vk, self.proof, self.instance, scheme)
        return True

    def verification_seconds(self) -> float:
        """Wall-clock of one :meth:`verify` (raises if it rejects)."""
        start = time.perf_counter()
        self.verify()
        return time.perf_counter() - start

    def predicted_vs_actual(self) -> List[Dict[str, object]]:
        """The shape's counts vs the counts this run actually performed."""
        return obs_metrics.predicted_vs_actual(self.predicted_counts,
                                               self.observed_counts)


@contextmanager
def _stage(phase: str) -> Iterator[None]:
    """Attribute a failure inside one pipeline stage to ``phase``."""
    try:
        yield
    except ResilienceError as exc:
        exc.with_context(phase=phase)
        raise
    except OSError as exc:
        raise ProvingError("phase %r failed: %s" % (phase, exc),
                           phase=phase, cause=type(exc).__name__) from exc


def prove_batch(
    spec: ModelSpec,
    batch_inputs: Sequence[Dict[str, np.ndarray]],
    scheme_name: str = "kzg",
    plan=None,
    num_cols: int = 10,
    scale_bits: int = 5,
    lookup_bits: Optional[int] = None,
    k: Optional[int] = None,
    use_pk_cache: bool = True,
    tracer=None,
    metrics=None,
    keep_synthesized: bool = False,
) -> ProveResult:
    """Synthesize, keygen, and prove one or more inferences of a model
    with a single proof.

    The batch shares the weight commitment and the lookup tables; each
    inference's outputs are exposed in its own instance columns.  ``k``
    forces the grid (default: the minimal feasible one for the batch).

    With ``use_pk_cache`` repeated proves of the same circuit skip keygen
    via the global proving-key cache (the circuit digest covers the batch
    shape, so equal-occupancy batches share keys — ``keygen_cache_hit``
    reports a skip).  ``tracer`` overrides the process tracer for this
    run; ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` that receives circuit
    statistics and prover operation counts.

    A typed error raised inside a stage names that stage as its phase,
    and a bare ``OSError`` (the pk cache's disk layer) is raised as a
    :class:`~repro.resilience.errors.ProvingError` for it.
    """
    tracer = tracer if tracer is not None else get_tracer()
    slots = len(batch_inputs)

    with tracer.span("prove_model" if slots == 1 else "prove_batch",
                     model=spec.name, scheme=scheme_name, batch_size=slots):
        with _stage("synthesize"), \
                tracer.span("synthesize", model=spec.name, batch_size=slots):
            result = synthesize_batch(
                spec, batch_inputs, plan=plan, num_cols=num_cols,
                scale_bits=scale_bits, lookup_bits=lookup_bits, k=k,
                tracer=tracer,
            )
            result.expose_outputs()
        builder = result.builder

        scheme = scheme_by_name(scheme_name, builder.field)
        start = time.perf_counter()
        with _stage("keygen"), \
                tracer.span("keygen", model=spec.name, k=builder.k,
                            num_cols=num_cols, scheme=scheme_name) as sp:
            if use_pk_cache:
                pk, vk, keygen_cache_hit = GLOBAL_PK_CACHE.get_or_create(
                    builder.cs, builder.asg, scheme, tracer=tracer)
            else:
                pk, vk = keygen(builder.cs, builder.asg, scheme,
                                tracer=tracer)
                keygen_cache_hit = False
            sp.set_attr("pk_cache_hit", keygen_cache_hit)
        keygen_seconds = time.perf_counter() - start

        start = time.perf_counter()
        timer = PhaseTimer(tracer)
        counts_before = STATS.snapshot()
        try:
            with _stage("prove"), \
                    tracer.span("prove", model=spec.name, k=builder.k,
                                batch_size=slots):
                proof = create_proof(pk, builder.asg, scheme, timer=timer)
        except ProvingError as exc:
            row = exc.context.get("row")
            if row is not None and exc.region is None:
                region = region_at(builder.regions, row)
                if region is not None:
                    exc.with_context(
                        layer=region.name,
                        region="%s[%d:%d]" % (region.name, region.start,
                                              region.end),
                    )
            raise
        proving_seconds = time.perf_counter() - start
        phase_seconds = dict(timer.seconds)
        observed = STATS.delta(counts_before)
        predicted = obs_metrics.predicted_counts(vk.shape)

        if metrics is not None:
            obs_metrics.record_circuit_stats(metrics, result,
                                             model=spec.name)
            obs_metrics.record_prover_run(metrics, spec.name, observed,
                                          predicted,
                                          phase_seconds=phase_seconds,
                                          slots=slots)
            metrics.gauge("zkml_keygen_seconds", "keygen wall-clock",
                          model=spec.name).set(round(keygen_seconds, 6))
            metrics.gauge("zkml_prove_seconds", "prover wall-clock",
                          model=spec.name).set(round(proving_seconds, 6))
            metrics.gauge("zkml_pk_cache_hit", "1 if keygen was skipped",
                          model=spec.name).set(int(keygen_cache_hit))

    return ProveResult(
        spec_name=spec.name,
        scheme_name=scheme_name,
        proof=proof,
        vk=vk,
        instance=builder.asg.instance_values(),
        slot_outputs=result.output_values(),
        num_cols=num_cols,
        k=builder.k,
        scale_bits=scale_bits,
        keygen_seconds=keygen_seconds,
        proving_seconds=proving_seconds,
        modeled_proof_bytes=vk.modeled_proof_bytes(scheme),
        phase_seconds=phase_seconds,
        keygen_cache_hit=keygen_cache_hit,
        observed_counts=observed,
        predicted_counts=predicted,
        synthesized=result if keep_synthesized else None,
        lookup_bits=lookup_bits,
    )


def prove_model(spec: ModelSpec, inputs: Dict[str, np.ndarray],
                *args, **options) -> ProveResult:
    """Synthesize, keygen, and prove one inference of a model: a batch
    of one.  Takes every option of :func:`prove_batch`; read the outputs
    from ``result.outputs``."""
    return prove_batch(spec, [inputs], *args, **options)

