"""The six zkbench workloads.

Each workload sets itself up (``setup``; repeated so the set-up time is a
median), then measures ops either end to end with tracing off
(``measure``) or, in the traced run, three ways per op: end to end
untraced, end to end under the program's tracer, and layer by layer
under benchmark spans (``measure_traced``).  Every produced artefact is
checked outside the timed region, inside the run.

The end-to-end paths touch only: ``get_model``, ``prove_model``,
``prove_batch``, ``ProveResult.envelope_bytes``/``envelope``,
``decode_envelope``, ``verify_envelope``, ``run_fixed``,
``VKRegistry.publish/get``, ``VerifyService.verify_batch``,
``ProvingService.submit/stats/shutdown``, ``optimize_layout``,
``profile_for_model`` and ``GLOBAL_PK_CACHE.clear``.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.envelope import decode_envelope, verify_envelope
from repro.model.executor import run_fixed
from repro.model.zoo import get_model
from repro.obs.trace import Tracer, use_tracer
from repro.optimizer import optimize_layout, profile_for_model
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.registry import VKRegistry
from repro.resilience import events
from repro.resilience.errors import EnvelopeError, ResilienceError, ServiceError
from repro.runtime.pipeline import prove_batch, prove_model
from repro.serve import ProvingService, ServeConfig, VerifyService

from zkbench.catalog import ZOO_MODELS
from zkbench.harness import (
    REQUEST_TIMEOUT_SECONDS,
    Layers,
    Recorder,
    Sent,
    SpanLog,
    SpeedMeter,
    Timing,
    kendall_tau,
    model_inputs,
    percentile,
    run_open_loop,
    seconds_of,
)
from zkbench.layers import (
    NUM_COLS,
    SCALE_BITS,
    SCHEME,
    counted,
    drive_prove,
    lower_api,
    run_probes,
)

#: Input index of warm-up ops, far from any timed op's index.
WARMUP_INDEX = 1_000_000

#: Rejection causes that count as a typed verdict on a tampered envelope.
TYPED_CAUSES = frozenset(("schema", "truncated", "cap", "checksum",
                          "envelope", "proof_format", "verify_failed"))

PROVE_ARGS = dict(scheme_name=SCHEME, num_cols=NUM_COLS,
                  scale_bits=SCALE_BITS)


@dataclass(frozen=True)
class Scale:
    """How much work a run does; ``tiny`` exists for the smoke test."""

    name: str
    setup_passes: int
    #: Rounds per run; ``None`` runs rounds until ``--seconds`` is up.
    max_rounds: Optional[int]
    zoo_models: Tuple[str, ...]
    deep_models: Tuple[str, ...]
    deep_k: int
    verify_models: Tuple[str, ...]
    serve_models: Tuple[str, ...]
    #: Requests per serve episode; ``None`` takes the workload's own.
    episode_requests: Optional[int]
    #: Multiplies the serve arrival rates (the smoke test cannot wait
    #: for a 2.5 req/s schedule).
    rate_factor: float
    #: Ops in a verify-mixed round; every fifth is tampered.
    verify_round_ops: int
    #: Repetitions behind each probe's median.
    probe_repeats: int
    optimize_models: Tuple[str, ...]


SCALES = {
    "full": Scale(
        name="full", setup_passes=3, max_rounds=None,
        zoo_models=("dlrm", "mnist", "twitter", "gpt2", "mobilenet",
                    "resnet18"),
        deep_models=("mnist", "gpt2"), deep_k=12,
        verify_models=("dlrm", "mnist", "twitter", "gpt2"),
        serve_models=("dlrm", "mnist"), episode_requests=None,
        rate_factor=1.0, verify_round_ops=20, probe_repeats=20,
        optimize_models=ZOO_MODELS),
    "tiny": Scale(
        name="tiny", setup_passes=1, max_rounds=1, zoo_models=("dlrm",),
        deep_models=("dlrm",), deep_k=10, verify_models=("dlrm",),
        serve_models=("dlrm",), episode_requests=2, rate_factor=10.0,
        verify_round_ops=10, probe_repeats=3, optimize_models=("dlrm",)),
}


@dataclass
class Context:
    seed: int
    seconds: float
    scale: Scale
    #: A directory inside the checkout for registries; the runner owns it.
    tmp_root: str
    #: Traced run (per-layer metrics, wall seconds as they were) or
    #: end-to-end run (tracing off, every time corrected for the speed the
    #: machine ran at; see ``harness.SpeedMeter``).
    trace: bool = False
    meter: SpeedMeter = field(init=False)
    #: Test hook: invert one known answer, which must show as a failure.
    wrong_answer: bool = False

    def __post_init__(self) -> None:
        self.meter = SpeedMeter(apply=not self.trace)


def outputs_match(spec, inputs, outputs) -> bool:
    """Circuit outputs against the fixed-point executor, which shares no
    code with the prover."""
    reference = run_fixed(spec, inputs, SCALE_BITS)
    return all(np.array_equal(np.asarray(outputs[name], dtype=object),
                              np.asarray(reference[name], dtype=object))
               for name in spec.outputs)


def envelope_verifies(data: bytes, vk, layers: Optional[Layers] = None,
                      spans: Optional[SpanLog] = None, op: str = "") -> bool:
    """Round-trip an envelope through the decoder and the strict
    verifier; in the traced run the two calls are also layer samples."""
    spans = spans if spans is not None else SpanLog()
    try:
        with spans.span("envelope.decode", op) as decode_span:
            env = decode_envelope(data)
        with spans.span("halo2.verify", op) as verify_span:
            verify_envelope(env, vk)
    except ResilienceError:
        return False
    if layers is not None:
        layers.add("envelope.decode_s", seconds_of(decode_span))
        layers.add("halo2.verify_s", seconds_of(verify_span))
    return True


class Workload:
    name = ""
    #: Set-up passes per run; ``None`` takes the scale's.
    setup_passes: Optional[int] = None

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def measure(self, rec: Recorder) -> None:
        raise NotImplementedError

    def measure_traced(self, rec: Recorder, layers: Layers, spans: SpanLog,
                       api: Optional[SimpleNamespace]) -> None:
        """``api`` holds the lower-level functions of ``layers.lower_api``,
        or is ``None`` when one of them has gone."""
        raise NotImplementedError

    def rounds(self) -> Iterator[int]:
        """Round indices: at least one, then more while time remains."""
        start = time.perf_counter()
        index = 0
        while True:
            yield index
            index += 1
            limit = self.ctx.scale.max_rounds
            if limit is not None and index >= limit:
                return
            if time.perf_counter() - start >= self.ctx.seconds:
                return

    def shuffled(self, items, round_index: int) -> List[str]:
        rng = np.random.default_rng([self.ctx.seed, round_index])
        return [str(item) for item in rng.permutation(list(items))]


def traced_overhead(layers: Layers, untraced: List[float],
                    traced: List[float]) -> None:
    layers.add("obs.tracer_overhead_share",
               statistics.median(traced) / statistics.median(untraced) - 1.0)


def attribution_gap(layers: Layers, op_seconds: float,
                    parts: Tuple[str, ...]) -> None:
    """How far the medians of the named layer times are from summing to
    the median op: the closed sum the README promises."""
    total = sum(layers.median(name) for name in parts)
    layers.add("obs.attribution_gap_share",
               abs(op_seconds - total) / op_seconds)


# ---------------------------------------------------------------- proving


class ZooCold(Workload):
    name = "zoo-cold"
    use_pk_cache = False

    def models(self) -> Tuple[str, ...]:
        return self.ctx.scale.zoo_models

    def forced_k(self) -> Optional[int]:
        return None

    def setup(self) -> None:
        GLOBAL_PK_CACHE.clear()
        self.specs = {m: get_model(m, "mini") for m in self.models()}
        # no key or table outlives an op here, so one op warms all there is
        self.prove(self.models()[0], WARMUP_INDEX)

    def prove(self, model: str, index: int):
        spec = self.specs[model]
        inputs = model_inputs(spec, self.ctx.seed, index)
        with self.ctx.meter.timed() as timing:
            result = prove_model(spec, inputs, k=self.forced_k(),
                                 use_pk_cache=self.use_pk_cache, **PROVE_ARGS)
            mid = time.perf_counter()
            data = result.envelope_bytes()
            encode_seconds = time.perf_counter() - mid
        return inputs, result, data, timing.seconds, encode_seconds

    def checked_op(self, rec: Recorder, model: str, index: int,
                   layers: Optional[Layers] = None,
                   spans: Optional[SpanLog] = None):
        try:
            inputs, result, data, seconds, _ = self.prove(model, index)
        except ResilienceError:
            rec.fail()
            return None
        ok = (envelope_verifies(data, result.vk, layers, spans,
                                "%s#%d" % (model, index))
              and outputs_match(self.specs[model], inputs, result.outputs))
        rec.op(model, seconds, ok, len(data))
        return seconds

    def measure(self, rec: Recorder) -> None:
        index = 0
        for round_index in self.rounds():
            for model in self.shuffled(self.models(), round_index):
                self.checked_op(rec, model, index)
                index += 1

    def measure_traced(self, rec: Recorder, layers: Layers, spans: SpanLog,
                       api: Optional[SimpleNamespace]) -> None:
        tracer = Tracer()
        untraced, traced, prove_by_model, predicted = [], [], {}, {}
        index = 0
        for round_index in self.rounds():
            for model in self.shuffled(self.models(), round_index):
                op = "%s#%d" % (model, index)
                with spans.span("op.checked", op):
                    seconds = self.checked_op(rec, model, index, layers,
                                              spans)
                if seconds is None:
                    continue
                untraced.append(seconds)
                with use_tracer(tracer), counted(api, layers), \
                        spans.span("op.traced", op):
                    inputs, result, _data, seconds, encode_s = self.prove(
                        model, index)
                traced.append(seconds)
                if result.predicted_counts.get("ffts_extended"):
                    layers.add("optimizer.fft_count_ratio",
                               result.observed_counts["ntt_extended"]
                               / result.predicted_counts["ffts_extended"])
                if api is not None:
                    with use_tracer(tracer), spans.span("op.layers", op):
                        parts = drive_prove(api, layers, spans, op,
                                            self.specs[model], inputs,
                                            self.forced_k(),
                                            self.use_pk_cache)
                    layers.add("runtime.unattributed_s",
                               (seconds - encode_s) - parts["synthesize_s"]
                               - parts["key_s"] - parts["prove_s"])
                    prove_by_model.setdefault(model, []).append(
                        parts["prove_s"])
                    predicted[model] = parts["predicted_s"]
                index += 1
        traced_overhead(layers, untraced, traced)
        if len(predicted) > 1:
            names = sorted(predicted)
            layers.add("optimizer.rank_tau", kendall_tau(
                [predicted[m] for m in names],
                [statistics.median(prove_by_model[m]) for m in names]))
        key_part = ("perf.pk_cache_get_s" if self.use_pk_cache
                    else "halo2.keygen_s")
        attribution_gap(layers, statistics.median(traced), (
            "compiler.synthesize_s", key_part, "halo2.prove_s",
            "envelope.encode_s", "runtime.unattributed_s"))


class DeepK(ZooCold):
    name = "deep-k"
    use_pk_cache = True
    # one pass costs two cold big-k proves, about 4 s: three of them
    # would cost more than the measuring window
    setup_passes = 1

    def models(self) -> Tuple[str, ...]:
        return self.ctx.scale.deep_models

    def forced_k(self) -> Optional[int]:
        return self.ctx.scale.deep_k

    def setup(self) -> None:
        GLOBAL_PK_CACHE.clear()
        self.specs = {m: get_model(m, "mini") for m in self.models()}
        # a cold op per model leaves its proving key cached and the key's
        # transform tables built, which is the state the timed ops assume
        self.keygen_seconds = [
            self.prove(model, WARMUP_INDEX)[1].keygen_seconds
            for model in self.models()]

    def measure_traced(self, rec: Recorder, layers: Layers, spans: SpanLog,
                       api: Optional[SimpleNamespace]) -> None:
        for seconds in self.keygen_seconds:
            layers.add("halo2.keygen_s", seconds)
        super().measure_traced(rec, layers, spans, api)


# -------------------------------------------------------------- verifying


class VerifyMixed(Workload):
    name = "verify-mixed"

    def setup(self) -> None:
        GLOBAL_PK_CACHE.clear()
        root = tempfile.mkdtemp(prefix="registry-", dir=self.ctx.tmp_root)
        self.registry = VKRegistry(root)
        self.good: Dict[str, bytes] = {}
        self.publish_seconds = []
        for index, model in enumerate(self.ctx.scale.verify_models):
            spec = get_model(model, "mini")
            result = prove_model(
                spec, model_inputs(spec, self.ctx.seed, index), **PROVE_ARGS)
            env = result.envelope()
            start = time.perf_counter()
            self.registry.publish(result.vk, env.model, env.config_digest)
            self.publish_seconds.append(time.perf_counter() - start)
            self.good[model] = env.encode()
        self.service = VerifyService(registry=self.registry)
        for data in self.good.values():
            self.service.verify_batch([data])

    def teardown(self) -> None:
        self.service.close()

    def plan(self, round_index: int) -> List[Tuple[str, bytes, bool]]:
        """One round as ``(kind, envelope bytes, known answer)``: models
        round-robin, every fifth op tampered, alternately one flipped
        byte inside the proof and a truncation."""
        models = self.ctx.scale.verify_models
        ops = []
        for i in range(self.ctx.scale.verify_round_ops):
            model = models[i % len(models)]
            data = self.good[model]
            if i % 5 != 4:
                ops.append((model, data, True))
                continue
            rng = np.random.default_rng(
                [self.ctx.seed,
                 round_index * self.ctx.scale.verify_round_ops + i])
            if (i // 5) % 2 == 0:
                bad = bytearray(data)
                bad[len(data) // 4 + int(rng.integers(len(data) // 2))] ^= 1
                ops.append(("flipped", bytes(bad), False))
            else:
                # mid-proof, within 256 bytes so sizes barely vary by seed
                cut = len(data) // 2 + int(rng.integers(256))
                ops.append(("truncated", data[:cut], False))
        if self.ctx.wrong_answer and round_index == 0:
            kind, data, answer = ops[0]
            ops[0] = (kind, data, not answer)
        return ops

    def verify(self, data: bytes, answer: bool) -> Tuple[float, bool]:
        with self.ctx.meter.timed() as timing:
            report = self.service.verify_batch([data])
        verdict = report["results"][0]
        ok = verdict["ok"] == answer and (
            verdict["ok"] or verdict.get("cause") in TYPED_CAUSES)
        return timing.seconds, ok

    def measure(self, rec: Recorder) -> None:
        for round_index in self.rounds():
            for kind, data, answer in self.plan(round_index):
                try:
                    seconds, ok = self.verify(data, answer)
                except ResilienceError:
                    rec.fail()
                    continue
                rec.op(kind, seconds, ok, len(data))

    def measure_traced(self, rec: Recorder, layers: Layers, spans: SpanLog,
                       api: Optional[SimpleNamespace]) -> None:
        tracer = Tracer()
        untraced, traced = [], []
        for seconds in self.publish_seconds:
            layers.add("registry.publish_s", seconds)
        for round_index in self.rounds():
            first = round_index * self.ctx.scale.verify_round_ops
            for index, (kind, data, answer) in enumerate(
                    self.plan(round_index), first):
                op = "%s#%d" % (kind, index)
                with spans.span("op.untraced", op):
                    seconds, ok = self.verify(data, answer)
                rec.op(kind, seconds, ok, len(data))
                untraced.append(seconds)
                with use_tracer(tracer), counted(api, layers), \
                        spans.span("op.traced", op):
                    seconds, _ = self.verify(data, answer)
                traced.append(seconds)
                with use_tracer(tracer), spans.span("op.layers", op):
                    self.drive(layers, spans, op, data, seconds)
        traced_overhead(layers, untraced, traced)
        # the closed sum is over accepted envelopes: a rejected one stops
        # at the decoder, which envelope.reject_s times on its own
        accepted = [t for kind, values in rec.by_kind.items()
                    if kind in self.good for t in values]
        attribution_gap(layers, statistics.median(accepted), (
            "envelope.decode_s", "registry.get_s", "halo2.verify_s",
            "serve.verify_unattributed_s"))

    def drive(self, layers: Layers, spans: SpanLog, op: str, data: bytes,
              service_seconds: float) -> None:
        """What ``verify_batch`` does to one envelope, call by call."""
        with spans.span("envelope.decode", op) as decode_span:
            try:
                env = decode_envelope(data)
            except EnvelopeError:
                env = None
        if env is None:
            layers.add("envelope.reject_s", seconds_of(decode_span))
            return
        with spans.span("registry.get", op) as get_span:
            vk = self.registry.get(env.vk_hash_hex)
            self.registry.entry(env.vk_hash_hex)
        with spans.span("halo2.verify", op) as verify_span:
            verify_envelope(env, vk)
        parts = [seconds_of(s) for s in (decode_span, get_span, verify_span)]
        for name, seconds in zip(("envelope.decode_s", "registry.get_s",
                                  "halo2.verify_s"), parts):
            layers.add(name, seconds)
        layers.add("serve.verify_unattributed_s",
                   service_seconds - sum(parts))


# ---------------------------------------------------------------- serving


class ServeStream(Workload):
    name = "serve-stream"
    #: Requests per second, about half of what one in-process prover
    #: sustains on this mix.
    rate = 2.5
    #: A run is a series of short episodes of this many requests, the
    #: service idle in between: outputs are checked and machine speed is
    #: sampled between episodes, outside every request's latency, and a
    #: run of any length ends on a drained service.  Even, so every
    #: episode carries each model equally often.
    episode_requests = 6
    #: Whether the service is busy for the whole of an episode, so that
    #: the episode's wall is machine time like a latency is, or mostly
    #: idle, its wall set by the arrival schedule.  Only machine time is
    #: corrected for machine speed.
    saturated = False

    def setup(self) -> None:
        GLOBAL_PK_CACHE.clear()
        self.specs = {m: get_model(m, "mini")
                      for m in self.ctx.scale.serve_models}
        self.vks = {}
        # singleton batches and pairs are the shapes this traffic flushes;
        # together they fill the four-entry proving-key cache exactly
        for spec in self.specs.values():
            inputs = model_inputs(spec, self.ctx.seed, WARMUP_INDEX)
            for shape in (1, 2):
                self.vk_for(spec, inputs, shape)
        self.service = ProvingService(ServeConfig()).start()
        for spec in self.specs.values():
            inputs = model_inputs(spec, self.ctx.seed, WARMUP_INDEX)
            self.service.submit(spec, inputs, **PROVE_ARGS).result(
                timeout=REQUEST_TIMEOUT_SECONDS)

    def teardown(self) -> None:
        self.service.shutdown(drain=True)

    def vk_for(self, spec, inputs, shape: int):
        result = prove_batch(spec, [inputs] * shape, **PROVE_ARGS)
        self.vks[result.vk.digest()] = result.vk
        return result.vk

    def count(self) -> int:
        return self.ctx.scale.episode_requests or self.episode_requests

    def episode(self, episode_index: int):
        """Send one episode on the schedule and wait for it to resolve.

        The models take turns, and which one goes first rotates with the
        episode and the seed: under a backlog a request's latency depends
        on what is queued ahead of it, so a drawn order would make the
        latencies differ between seeds for no reason but the draw.
        Inputs are drawn from the seed, before the first request is due.
        Returns the requests, what became of them, and the timing of the
        whole episode.
        """
        count = self.count()
        first_index = episode_index * count
        models = list(self.specs)
        turn = episode_index + self.ctx.seed
        requests = []
        for i in range(count):
            model = models[(turn + i) % len(models)]
            requests.append((model, model_inputs(
                self.specs[model], self.ctx.seed, first_index + i)))

        def submit(i: int):
            model, inputs = requests[i]
            return self.service.submit(self.specs[model], inputs,
                                       **PROVE_ARGS)

        with self.ctx.meter.timed() as timing:
            sent = run_open_loop(count,
                                 self.rate * self.ctx.scale.rate_factor,
                                 submit, (ServiceError,))
        return requests, sent, timing

    def batch_verifies(self, spec, inputs, response, seen: Dict) -> bool:
        """The batch envelope a response carries, checked once per batch
        against the verifying key of its padded shape."""
        if response.batch_id not in seen:
            try:
                env = decode_envelope(response.envelope_bytes)
                vk = self.vks.get(env.vk_hash) or self.vk_for(
                    spec, inputs, response.padded_size)
                verify_envelope(env, vk)
                seen[response.batch_id] = env.instance == response.instance
            except ResilienceError:
                seen[response.batch_id] = False
        return seen[response.batch_id]

    def record(self, rec: Recorder, requests, sent: List[Sent],
               timing: Timing) -> List[float]:
        """Check and record one episode; returns its latencies."""
        seen: Dict[str, bool] = {}
        latencies = []
        for item in sent:
            if item.response is None or item.done is None:
                rec.fail()
                continue
            model, inputs = requests[item.index]
            response = item.response
            ok = (response.verified
                  and self.batch_verifies(self.specs[model], inputs,
                                          response, seen)
                  and outputs_match(self.specs[model], inputs,
                                    response.outputs))
            latency = (item.done - item.due) * timing.scale
            latencies.append(latency)
            rec.op(model, latency, ok, len(response.envelope_bytes), wall=0.0)
            # a response holds megabytes of proof; drop it once checked so
            # the process's peak memory is the service's, not the client's
            item.response = item.future = None
        done = [item.done for item in sent if item.done is not None]
        if done:
            wall = max(done) - sent[0].due
            rec.wall += wall * timing.scale if self.saturated else wall
        return latencies

    def measure(self, rec: Recorder) -> None:
        for episode_index in self.rounds():
            self.record(rec, *self.episode(episode_index))

    def measure_traced(self, rec: Recorder, layers: Layers, spans: SpanLog,
                       api: Optional[SimpleNamespace]) -> None:
        tracer = Tracer()
        untraced, traced, late = [], [], []
        batches: Dict[str, Tuple[int, int]] = {}
        refused = 0
        for round_index in self.rounds():
            untraced += self.record(rec, *self.episode(2 * round_index))
            with use_tracer(tracer), counted(api, layers, ops=self.count()):
                requests, sent, timing = self.episode(2 * round_index + 1)
            refused += sum(1 for item in sent if item.refused is not None)
            late += [item.sent - item.due for item in sent]
            for item in sent:
                if item.response is not None and item.done is not None:
                    self.attribute(layers, spans, batches, item)
            # traced ops are checked and counted, but only untraced
            # latencies feed the latency metrics
            traced_rec = Recorder()
            traced += self.record(traced_rec, requests, sent, timing)
            rec.attempted += traced_rec.attempted
            rec.passed += traced_rec.passed
        traced_overhead(layers, untraced, traced)
        occupied = sum(size for size, _ in batches.values())
        padded = sum(padded for _, padded in batches.values())
        # per traced episode, so the count does not depend on how many
        # episodes the run had time for
        layers.add("serve.batches", len(batches) / (round_index + 1))
        layers.add("serve.mean_occupancy", occupied / len(batches))
        layers.add("serve.padded_slot_share", (padded - occupied) / padded)
        layers.add("serve.rejected", refused)
        layers.add("serve.generator_late_s", percentile(late, 0.99))
        attribution_gap(layers, statistics.median(traced), (
            "serve.queue_s", "serve.batch_prove_s", "serve.unattributed_s"))

    @staticmethod
    def attribute(layers: Layers, spans: SpanLog,
                  batches: Dict[str, Tuple[int, int]], item: Sent) -> None:
        """One resolved request's latency, split by the timing fields its
        ``ProofResponse`` carries."""
        response = item.response
        op = "%s#%s" % (response.model, response.request_id)
        spans.record("serve.request", op, item.due, item.done)
        spans.record("serve.batch_prove", op,
                     item.done - response.prove_seconds, item.done)
        layers.add("serve.queue_s", response.queue_seconds)
        layers.add("serve.batch_prove_s", response.prove_seconds)
        layers.add("serve.slot_prove_s", response.slot_prove_seconds)
        layers.add("serve.keygen_s", response.keygen_seconds)
        layers.add("serve.unattributed_s",
                   (item.done - item.due) - response.queue_seconds
                   - response.prove_seconds)
        batches[response.batch_id] = (response.batch_size,
                                      response.padded_size)


class ServeSaturated(ServeStream):
    name = "serve-saturated"
    #: Four times what one in-process prover sustains on this mix.  A
    #: request's latency under a backlog is the work queued ahead of it
    #: minus its arrival offset; the faster the arrivals, the less that
    #: difference magnifies a change in speed (2.2x at 12 req/s, where
    #: the median latency repeated within 15-22%; 1.3x here).  Requests
    #: of one model still arrive 0.08 s apart, longer than the service's
    #: flush deadline (at most 0.06 s on this mix), so the deadline, not
    #: luck, decides what coalesces: today nothing does.
    rate = 24.0
    #: Arrivals take 0.4 s and the backlog they build about 1.3 s more to
    #: drain at today's capacity.
    episode_requests = 10
    saturated = True


# ------------------------------------------------------------- optimizing


class OptimizeZoo(Workload):
    name = "optimize-zoo"

    def setup(self) -> None:
        self.specs = {m: get_model(m, "paper")
                      for m in self.ctx.scale.optimize_models}
        self.profiles = {m: profile_for_model(m) for m in self.specs}
        self.first_choice: Dict[str, Tuple[int, int]] = {}

    def optimize(self, model: str):
        with self.ctx.meter.timed() as timing:
            result = optimize_layout(self.specs[model], self.profiles[model],
                                     scheme_name=SCHEME, objective="time",
                                     prune=True)
        return result, timing.seconds

    def checked_op(self, rec: Recorder, model: str) -> Optional[float]:
        try:
            result, seconds = self.optimize(model)
        except ResilienceError:
            rec.fail()
            return None
        choice = (result.layout.k, result.layout.num_cols)
        # a layout is a known answer: the first sweep fixes it, every
        # later sweep must find the same one
        ok = (result.best.cost.total > 0
              and choice == self.first_choice.setdefault(model, choice))
        rec.op(model, seconds, ok, result.proof_size)
        return seconds

    def measure(self, rec: Recorder) -> None:
        for round_index in self.rounds():
            for model in self.shuffled(self.specs, round_index):
                self.checked_op(rec, model)

    def measure_traced(self, rec: Recorder, layers: Layers, spans: SpanLog,
                       api: Optional[SimpleNamespace]) -> None:
        tracer = Tracer()
        untraced, traced = [], []
        for round_index in self.rounds():
            for model in self.shuffled(self.specs, round_index):
                op = "%s#%d" % (model, round_index)
                with spans.span("op.untraced", op):
                    seconds = self.checked_op(rec, model)
                if seconds is None:
                    continue
                untraced.append(seconds)
                with use_tracer(tracer), counted(api, layers), \
                        spans.span("optimizer.optimize", op):
                    result, seconds = self.optimize(model)
                traced.append(seconds)
                layers.add("optimizer.optimize_s", seconds)
                layers.add("optimizer.layouts_evaluated",
                           len(result.candidates))
                layers.add("optimizer.best_k.%s" % model, result.layout.k)
                layers.add("optimizer.best_cols.%s" % model,
                           result.layout.num_cols)
        traced_overhead(layers, untraced, traced)
        attribution_gap(layers, statistics.median(traced),
                        ("optimizer.optimize_s",))


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    ZooCold, DeepK, VerifyMixed, ServeStream, ServeSaturated, OptimizeZoo)}


# ------------------------------------------------------------------ runner


def run_workload(name: str, ctx: Context,
                 import_seconds: float = 0.0) -> Dict[str, object]:
    """Set up ``name`` (several times), measure it, and return the
    contract's result object plus what the trace file wants.

    ``import_seconds`` is what the process spent importing before it got
    here; set-up time is that plus the median set-up pass.
    """
    workload = WORKLOAD_CLASSES[name](ctx)
    events.reset()
    if ctx.meter.apply:
        import_seconds /= ctx.meter.factor()
    passes = []
    count = workload.setup_passes or ctx.scale.setup_passes
    for index in range(count):
        with ctx.meter.timed() as timing:
            if index:
                workload.teardown()
            workload.setup()
        passes.append(timing.seconds)
    rec, layers, spans = Recorder(), Layers(), SpanLog()
    try:
        if ctx.trace:
            api = lower_api(layers)
            if api is not None:
                run_probes(api, layers, ctx.scale.probe_repeats)
            workload.measure_traced(rec, layers, spans, api)
        else:
            workload.measure(rec)
    finally:
        workload.teardown()

    latencies = rec.latencies()
    if not latencies:
        raise RuntimeError("%s: no op completed (%d attempted)"
                           % (name, rec.attempted))
    if ctx.trace:
        hits = sum(layers.samples.get("perf.pk_cache_hits", ()))
        misses = sum(layers.samples.get("perf.pk_cache_misses", ()))
        if hits + misses:
            layers.add("perf.pk_cache_hit_share", hits / (hits + misses))
        recoveries = events.counts()
        for kind in ("retries", "degraded", "recovered"):
            layers.add("resilience.%s" % kind, recoveries[kind])
        layers.add("latency.op_p90_s", percentile(latencies, 0.9))
        layers.add("latency.samples", len(latencies))
        layers.add("latency.failed_share", rec.failed / rec.attempted)
        layers.add("obs.machine_speed_factor",
                   statistics.median(ctx.meter.samples))
        metrics = layers.values()
    else:
        metrics = rec.end_to_end(import_seconds + statistics.median(passes))
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
        "samples": len(latencies),
        "import_seconds": import_seconds,
        "setup_passes": passes,
        "spans": spans.spans,
        "dropped": layers.dropped,
    }
