"""Command-line interface (the paper's "simple bash interface", §4.1).

Subcommands:

- ``zkml models``                       — list the zoo.
- ``zkml inspect --model NAME``         — circuit statistics for a model
  (``--json`` for machine-readable output).
- ``zkml optimize --model NAME``        — run the layout optimizer.
- ``zkml prove --model NAME``           — prove one inference of a mini
  model (``--envelope PATH`` writes the ``zkml-proof-envelope/v2``
  bytes, ``--registry DIR`` publishes the verifying key, idempotently).
- ``zkml verify --envelope F --registry DIR`` — verify an envelope
  against the key published for it; exit 3 = the envelope's key is
  absent from the registry.
- ``zkml registry list|check``          — the content-addressed,
  checksummed verifying-key registry backing envelope verification.
- ``zkml verify-serve``                 — run the hardened envelope
  verification service on a unix socket: per-request caps, load
  shedding, deadlines, batch verification, verdicts by typed cause.
- ``zkml diagnose --model NAME``        — mock-verify a mini model with
  region-attributed failure reports (``--tamper-row`` breaks a cell;
  exit 2 = constraints failed, exit 1 = operational error).
- ``zkml profile --model NAME``         — prove once under full
  observability and attribute rows / cells / copies / wall-time to
  individual model layers; writes a JSON report plus Chrome-trace and
  flamegraph siblings.
- ``zkml calibrate``                    — microbenchmark this machine,
  fit the §7.4 cost curves, and write a hardware profile JSON the
  optimizer loads via ``--hardware`` or ``$ZKML_HW_PROFILE``.
- ``zkml bench [ARGS...]``              — the repository's one benchmark:
  runs ``benchmarks/zkbench/run.py`` from the checkout with ``ARGS``
  forwarded verbatim (its README documents them) and, after a suite
  run, writes ``BENCH_prover.json`` / ``BENCH_serve.json`` /
  ``BENCH_verify.json`` as views of the result file.
- ``zkml transpile --flat FILE``        — import a tflite-like flat JSON
  model and report its circuit statistics.
- ``zkml serve``                        — run the batch-aware proving
  service on a unix socket (``--smoke N`` runs the in-process load test
  instead and asserts coalescing happened; ``--fault`` adds a poisoned
  request and asserts the flight recorder dumped).
- ``zkml submit``                       — send proof requests to a
  running ``zkml serve`` socket; exits 1 on failed requests, 2 when a
  proof came back unverified.
- ``zkml top``                          — live operator dashboard for a
  running ``zkml serve`` (``--once --json`` for scripting).

Observability flags available on every subcommand but ``bench`` (whose
arguments are all zkbench's): ``--trace PATH``
(span tree, Chrome trace_event JSON or ``.jsonl``; the ``ZKML_TRACE``
environment variable is the flag's default), ``--metrics PATH``
(Prometheus text format), ``-v`` / ``--quiet`` for log verbosity
(``ZKML_LOG_LEVEL`` also applies).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.compiler import build_physical_layout
from repro.field import native
from repro.layers.base import LayoutChoices
from repro.model import get_model, model_names, seeded_inputs, transpile
from repro.obs import log as obs_log
from repro.obs.metrics import (
    MetricsRegistry,
    record_circuit_stats,
    render_predicted_vs_actual,
)
from repro.obs.trace import Tracer, use_tracer
from repro.optimizer import resolve_profile
from repro.resilience import events
from repro.resilience.errors import (
    KernelUnavailableError,
    ResilienceError,
    UnknownVerifyingKeyError,
)
from repro.runtime import estimate_model, prove_model

log = obs_log.get_logger("cli")


def _cmd_models(args) -> int:
    for name in model_names():
        paper = get_model(name, "paper")
        log.info("%-10s %12d params %16d flops", name, paper.param_count(),
                 paper.flops())
    return 0


def _describe_spec(spec, num_cols: int, scale_bits: int) -> None:
    layout = build_physical_layout(spec, LayoutChoices(), num_cols,
                                   scale_bits=scale_bits)
    log.info("model:           %s", spec.name)
    log.info("layers:          %d", len(spec.layers))
    log.info("parameters:      %s", "{:,}".format(spec.param_count()))
    log.info("flops:           %s", "{:,}".format(spec.flops()))
    log.info("grid (at %d cols): 2^%d rows (%s gadget rows, %s table rows)",
             num_cols, layout.k, "{:,}".format(layout.gadget_rows),
             "{:,}".format(layout.table_rows))
    log.info("lookup args:     %d", layout.num_lookups)
    log.info("selectors:       %d", layout.num_selectors)
    log.info("fixed columns:   %d (%d weight columns)", layout.num_fixed,
             layout.num_weight_columns)
    start = time.perf_counter()
    shape = layout.shape()
    seconds = time.perf_counter() - start
    log.info("constraint deg:  %d (extension %d)", shape.max_degree,
             shape.extension)
    log.info("commit rounds:   %s columns (fixed/advice/helper/quotient)",
             "/".join(map(str, shape.round_widths)))
    log.info("proof bytes:     %s (shape from the count walk in %.3f s, "
             "no witness)", "{:,}".format(shape.proof_bytes), seconds)
    log.info("field kernel:    %d lanes, %d threads", native.lane_width(),
             native.thread_count())


def _inspect_info(spec, scale: str, num_cols: int, scale_bits: int) -> dict:
    """The machine-readable form of ``zkml inspect`` (``--json``)."""
    layout = build_physical_layout(spec, LayoutChoices(), num_cols,
                                   scale_bits=scale_bits)
    info = {
        "model": spec.name,
        "scale": scale,
        "layers": len(spec.layers),
        "parameters": spec.param_count(),
        "flops": spec.flops(),
        "field_kernel": {"lanes": native.lane_width(),
                         "threads": native.thread_count()},
        "layout": {
            "k": layout.k,
            "num_cols": num_cols,
            "rows": 1 << layout.k,
            "gadget_rows": layout.gadget_rows,
            "table_rows": layout.table_rows,
            "num_lookups": layout.num_lookups,
            "num_selectors": layout.num_selectors,
            "num_fixed": layout.num_fixed,
            "num_weight_columns": layout.num_weight_columns,
            "per_layer_rows": dict(layout.per_layer_rows),
        },
        "shape": layout.shape().as_dict(),
    }
    if spec.materialized:
        # Mini models can be synthesized for exact cell/row counters — the
        # circuit structure is input-independent, so zeros suffice.  These
        # are the same counters ``zkml prove --metrics`` records.
        from repro.compiler import synthesize_model

        synthesized = synthesize_model(
            spec,
            {name: np.zeros(shape) for name, shape in spec.inputs.items()},
            num_cols=num_cols, scale_bits=scale_bits,
        )
        # exposed like a prove run, so the instance cell and
        # copy-constraint counters match its metrics
        synthesized.expose_outputs()
        registry = MetricsRegistry()
        record_circuit_stats(registry, synthesized, model=spec.name)
        info["metrics"] = registry.as_dict()
    return info


def _cmd_inspect(args) -> int:
    spec = get_model(args.model, args.scale)
    if args.json:
        print(json.dumps(_inspect_info(spec, args.scale, args.columns,
                                       args.scale_bits),
                         indent=2, sort_keys=True))
        return 0
    _describe_spec(spec, args.columns, args.scale_bits)
    if args.per_layer:
        from repro.compiler import render_breakdown

        layout = build_physical_layout(spec, LayoutChoices(), args.columns,
                                       scale_bits=args.scale_bits)
        log.info("")
        log.info("%s", render_breakdown(layout))
    return 0


def _cmd_transpile(args) -> int:
    with open(args.flat) as f:
        flat = json.load(f)
    spec = transpile(flat)
    log.info("transpiled %r: %d layers, all kinds supported",
             spec.name, len(spec.layers))
    _describe_spec(spec, args.columns, args.scale_bits)
    return 0


def _cmd_optimize(args) -> int:
    # a built-in name, a calibrated-profile JSON path, $ZKML_HW_PROFILE,
    # or the paper's per-model default — in that order
    hardware = resolve_profile(args.hardware, model_name=args.model)
    est = estimate_model(
        args.model,
        scheme_name=args.backend,
        scale_bits=args.scale_bits,
        hardware=hardware,
        objective=args.objective,
        include_freivalds=args.freivalds,
    )
    log.info("model:         %s", est.model)
    log.info("backend:       %s", est.scheme_name)
    log.info("hardware:      %s", est.hardware)
    log.info("layout:        %d columns x 2^%d rows", est.num_cols, est.k)
    log.info("plan:          %s", est.result.layout.plan)
    log.info("est. proving:  %.2f s", est.proving_seconds)
    log.info("est. verify:   %.4f s", est.verification_seconds)
    log.info("est. proof:    %d bytes", est.proof_bytes)
    log.info("optimizer ran: %.2f s over %d layouts",
             est.optimizer_seconds, len(est.result.candidates))
    return 0


def _cmd_prove(args) -> int:
    spec = get_model(args.model, "mini")
    inputs = seeded_inputs(spec, args.seed)
    result = prove_model(spec, inputs, scheme_name=args.backend,
                         num_cols=args.columns, scale_bits=args.scale_bits,
                         metrics=args.obs_registry)
    verify_seconds = result.verification_seconds()
    log.info("model:        %s", result.spec_name)
    log.info("backend:      %s", result.scheme_name)
    log.info("grid:         %d columns x 2^%d rows", result.num_cols, result.k)
    log.info("keygen:       %.2f s", result.keygen_seconds)
    log.info("proving:      %.2f s", result.proving_seconds)
    log.info("verification: %.4f s", verify_seconds)
    shape = result.vk.shape
    log.info("shape:        degree %d, extension %d, rounds %s columns",
             shape.max_degree, shape.extension,
             "/".join(map(str, shape.round_widths)))
    log.info("proof size:   %d bytes (modeled halo2 proof: %d bytes)",
             shape.proof_bytes, result.modeled_proof_bytes)
    if args.profile:
        log.info("prover phase breakdown:")
        total = sum(result.phase_seconds.values())
        for phase, secs in sorted(result.phase_seconds.items(),
                                  key=lambda kv: -kv[1]):
            share = 100.0 * secs / total if total else 0.0
            log.info("  %-10s %8.3f s  %5.1f%%", phase, secs, share)
        log.info("proof shape, predicted vs actual:")
        log.info("%s",
                 render_predicted_vs_actual(result.predicted_vs_actual()))
    envelope = None
    if args.envelope or args.registry:
        envelope = result.envelope()
    if args.envelope:
        data = envelope.encode()
        with open(args.envelope, "wb") as f:
            f.write(data)
        log.info("envelope:     %s (%d bytes, vk %s...)", args.envelope,
                 len(data), envelope.vk_hash_hex[:16])
    if args.registry:
        from repro.registry import VKRegistry

        entry, created = VKRegistry(args.registry).publish(
            result.vk, envelope.model, envelope.config_digest)
        log.info("registry:     %s %s (vk %s...)", args.registry,
                 "published" if created else "already present",
                 entry.vk_hash[:16])
    return 0


def _cmd_diagnose(args) -> int:
    from repro.obs.diagnose import diagnose_model

    spec = get_model(args.model, "mini")
    inputs = seeded_inputs(spec, args.seed)
    report = diagnose_model(
        spec, inputs, num_cols=args.columns, scale_bits=args.scale_bits,
        tamper_row=args.tamper_row, tamper_col=args.tamper_col,
        max_failures=args.max_failures,
    )
    log.info("%s", report.render())
    # exit 2 is the stable "constraints failed" code (CI greps for it);
    # operational errors keep exiting 1 via the ResilienceError handler
    return 0 if report.ok else 2


def _sibling_path(path: str, suffix: str) -> str:
    root, _ = os.path.splitext(path)
    return root + suffix


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_model

    spec = get_model(args.model, "mini")
    inputs = seeded_inputs(spec, args.seed)
    report, tracer, _ = profile_model(
        spec, inputs, scheme_name=args.backend, num_cols=args.columns,
        scale_bits=args.scale_bits, registry=args.obs_registry,
    )
    for line in report.render(top=args.top).splitlines():
        log.info("%s", line)
    out = args.out or "PROFILE_%s.json" % args.model
    report.write(out)
    trace_path = _sibling_path(out, ".trace.json")
    folded_path = _sibling_path(out, ".folded")
    tracer.write(trace_path)
    tracer.write(folded_path)
    log.info("report:       %s", out)
    log.info("trace:        %s (chrome://tracing)", trace_path)
    log.info("flamegraph:   %s (flamegraph.pl folded stacks)", folded_path)
    if report.attributed_rows() != report.rows_used:
        log.error("attribution lost rows: %d attributed vs %d used",
                  report.attributed_rows(), report.rows_used)
        return 1
    return 0


def _cmd_calibrate(args) -> int:
    from repro.optimizer import calibrate_hardware, probe_drift

    calibration = calibrate_hardware(
        ks=tuple(args.ks), scheme_name=args.backend, name=args.name,
    )
    if args.probe != "none":
        registry = args.obs_registry if args.obs_registry is not None \
            else MetricsRegistry()
        probe_drift(calibration, probe_model=args.probe,
                    registry=registry, seed=args.seed)
    for line in calibration.render().splitlines():
        log.info("%s", line)
    calibration.save(args.out)
    log.info("profile:      %s", args.out)
    log.info("use it:       zkml optimize --hardware %s  "
             "(or export ZKML_HW_PROFILE=%s)", args.out, args.out)
    if calibration.drift and not calibration.drift["improved"]:
        log.warning("calibration did not beat the static default on the "
                    "probe — profile written anyway, inspect the drift "
                    "numbers above")
        if args.strict:
            return 1
    return 0


#: zkbench's entry point in the checkout this file is ``src/repro/cli.py`` of.
ZKBENCH_RUN = os.path.abspath(os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "zkbench", "run.py"))


def _forwarded_out(argv) -> str:
    """The result path zkbench will write: its ``--out``, or its default."""
    out = "zkbench.result.json"
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            out = argv[i + 1]
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
    return out


def _mtime_ns(path: str):
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def _cmd_bench(argv) -> int:
    """``zkml bench ARGS...``: zkbench with ``ARGS``, then the views."""
    import subprocess

    from repro.perf.views import write_views

    if not os.path.isfile(ZKBENCH_RUN):
        return _report_failure(ResilienceError(
            "zkml bench runs benchmarks/zkbench/run.py from a source "
            "checkout and this install has none", phase="bench",
            expected=ZKBENCH_RUN))
    result_path = _forwarded_out(argv)
    before = _mtime_ns(result_path)
    rc = subprocess.call([sys.executable, ZKBENCH_RUN, *argv])
    after = _mtime_ns(result_path)
    if after is not None and after != before:
        # only a suite run writes the result file
        for path in write_views(result_path):
            log.info("wrote %s", path)
    return rc


def _cmd_verify(args) -> int:
    """``zkml verify --envelope FILE --registry DIR``: decode the
    envelope, resolve its key and registry entry, verify.

    Exit codes: 0 verified; 1 any verification or operational failure;
    3 the envelope's verifying key is absent from the registry (the
    distinct code lets callers distinguish "publish the key and retry"
    from "this proof is bad").
    """
    from repro.envelope import decode_envelope, verify_envelope
    from repro.registry import VKRegistry

    try:
        with open(args.envelope, "rb") as f:
            data = f.read()
    except OSError as exc:
        log.error("verification: FAILED", envelope=args.envelope,
                  reason="unreadable", detail=str(exc))
        return 1
    if not args.registry:
        log.error("verification: FAILED", envelope=args.envelope,
                  reason="no registry",
                  detail="--envelope needs --registry DIR to resolve "
                         "the verifying key")
        return 1
    try:
        env = decode_envelope(data)
        vk, entry = VKRegistry(args.registry).resolve(env.vk_hash_hex)
        entry.bind(env)
        verify_envelope(env, vk)
    except KernelUnavailableError:
        raise  # not a verdict: main() reports it and exits 1
    except ResilienceError as exc:
        fields = {"envelope": args.envelope}
        fields.update(exc.attribution())
        fields.setdefault("detail", exc.args[0] if exc.args else "")
        if not isinstance(exc, UnknownVerifyingKeyError):
            log.error("verification: FAILED", **fields)
            return 1
        log.error("verification: FAILED", reason="unknown_vk", **fields)
        log.error("hint: publish the key first — zkml prove --model "
                  "<model> --registry %s", args.registry)
        return 3
    log.info("verification: OK", model=env.model, scheme=env.scheme_name,
             vk_hash=env.vk_hash_hex[:16],
             public_inputs=env.num_public_inputs())
    return 0


def _cmd_registry(args) -> int:
    """``zkml registry list|check`` — the verifying-key store (``zkml
    prove --registry`` publishes into it)."""
    from repro.registry import VKRegistry

    registry = VKRegistry(args.registry)
    if args.registry_cmd == "list":
        entries = registry.list_entries()
        if args.json:
            print(json.dumps([e.as_dict() for e in entries], indent=2,
                             sort_keys=True))
            return 0
        if not entries:
            log.info("registry at %s is empty", registry.root)
            return 0
        log.info("%-12s %-6s %-18s %-18s %10s", "model", "scheme",
                 "vk hash", "config digest", "bytes")
        for e in entries:
            log.info("%-12s %-6s %-18s %-18s %10d", e.model, e.scheme,
                     e.vk_hash[:16], e.config_digest[:16], e.size_bytes)
        return 0
    report = registry.check(repair=args.repair)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        log.info("registry check: %d/%d intact%s", report["intact"],
                 report["checked"],
                 " (corrupt entries evicted)" if report["repaired"] else "")
        for item in report["corrupt"]:
            log.error("  corrupt: %s (%s) — %s", item["vk_hash"][:16],
                      item["model"], item["cause"])
    # exit 1 = corrupt entries found (CI greps for it); --repair evicted
    # them, but the keys still need re-publishing to be served again
    return 0 if report["ok"] else 1


def _verify_serve_config(args):
    from repro.serve import VerifyConfig

    return VerifyConfig(
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        deadline_seconds=args.deadline,
        flight_path=args.flight_recorder or None,
    )


def _serve_until_signal(front_ends, close, stop_message: str) -> None:
    """Serve the first front end on this thread and the rest on their
    own until SIGTERM or Ctrl-C; then stop them all, ``close()`` the
    service and write its shutdown flight dump."""
    import signal

    runtime = front_ends[0].processor.service.runtime

    def _terminate(signum, frame):
        raise KeyboardInterrupt  # SIGTERM stops like Ctrl-C

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        for front in front_ends[1:]:
            front.start()
        front_ends[0].serve_forever()
    except KeyboardInterrupt:
        log.info(stop_message)
    finally:
        signal.signal(signal.SIGTERM, previous)
        for front in front_ends:
            front.stop()
        close()
        if runtime.dump_path:
            runtime.dump(reason="shutdown")
            log.info("flight recorder: %s", runtime.dump_path)


def _cmd_verify_serve(args) -> int:
    from repro.registry import VKRegistry
    from repro.serve import VerifyService
    from repro.serve.http_server import HttpFrontEnd
    from repro.serve.server import VerifyProcessor

    registry = VKRegistry(args.registry) if args.registry else None
    if registry is None:
        log.warning("no --registry: every envelope will be rejected "
                    "unknown_vk (a verifier with no trusted keys trusts "
                    "nothing)")
    service = VerifyService(registry=registry,
                            config=_verify_serve_config(args),
                            metrics=args.obs_registry)
    processor = VerifyProcessor(service, args.max_request_mb << 20)
    _serve_until_signal([HttpFrontEnd(processor, args.socket)],
                        service.close, "shutting down...")
    stats = service.stats()
    log.info("verified %d envelopes over %d requests "
             "(%d accepted, %d rejected)", stats["envelopes"],
             stats["requests"], stats["accepted"], stats["rejected"])
    return 0


def _serve_config(args):
    from repro.serve import ServeConfig

    return ServeConfig(
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        max_flush_seconds=args.flush_ms / 1000.0,
        cluster_workers=max(0, args.workers),
        registry_dir=args.registry,
        max_backlog_batches=args.max_backlog,
        flight_path=args.flight_recorder or None,
    )


def _smoke_fault(service, spec, args) -> list:
    """``--fault``: force one batch failure and check the postmortem.

    A request whose inputs sit far outside the quantization range fails
    its batch with a typed error; the flight recorder must auto-dump a
    checksummed artifact recording the ``batch_failed`` event."""
    from repro.obs.runtime import verify_flight_dump

    poisoned = {name: np.full(shape, 1e9)
                for name, shape in spec.inputs.items()}
    future = service.submit(spec, poisoned, scheme_name=args.backend,
                            num_cols=args.columns,
                            scale_bits=args.scale_bits)
    try:
        future.result(timeout=300)
        return ["poisoned request unexpectedly proved"]
    except ResilienceError as exc:
        log.info("forced fault surfaced typed %s", type(exc).__name__)
    service.drain(timeout=300)
    path = args.flight_recorder
    if not path or not os.path.exists(path):
        return ["forced fault did not write a flight dump at %r" % path]
    with open(path) as fh:
        artifact = json.load(fh)
    if not verify_flight_dump(artifact):
        return ["flight dump at %s failed its checksum" % path]
    kinds = [event["kind"] for event in artifact["events"]]
    if "batch_failed" not in kinds:
        return ["flight dump is missing the batch_failed event"]
    log.info("flight dump: %s (%d events, checksum ok)", path,
             len(artifact["events"]))
    return []


def _serve_smoke(args) -> int:
    """In-process load test: N concurrent requests must all verify and
    must actually coalesce (the CI serve-smoke job's assertion)."""
    from repro.serve import ProvingService

    spec = get_model(args.model, "mini")
    rng = np.random.default_rng(args.seed)
    registry = args.obs_registry if args.obs_registry is not None \
        else MetricsRegistry()
    failures = []
    with ProvingService(_serve_config(args), metrics=registry) as service:
        if args.fault:
            failures.extend(_smoke_fault(service, spec, args))
        futures = [
            service.submit(
                spec, seeded_inputs(spec, rng),  # the next draw, per request
                scheme_name=args.backend, num_cols=args.columns,
                scale_bits=args.scale_bits,
            )
            for _ in range(args.smoke)
        ]
        responses = [f.result(timeout=300) for f in futures]
        stats = service.stats()
    log.info("serve smoke: %d requests -> %d batches "
             "(mean occupancy %.2f), all verified: %s",
             stats["requests"], stats["batches"], stats["mean_occupancy"],
             all(r.verified for r in responses))
    for response in responses:
        log.debug("request", request_id=response.request_id,
                  batch_id=response.batch_id,
                  batch_size=response.batch_size,
                  padded=response.padded_size,
                  keygen_cache_hit=response.keygen_cache_hit)
    if not all(r.verified for r in responses):
        failures.append("not every proof verified")
    if not stats["batches"]:
        failures.append("serve_batches_total is zero")
    if args.smoke > 1 and args.max_batch > 1 \
            and stats["mean_occupancy"] <= 1.0:
        failures.append("mean batch occupancy %.2f never exceeded 1 — "
                        "requests were not coalesced"
                        % stats["mean_occupancy"])
    if failures:
        log.error("serve smoke failed: %s", "; ".join(failures))
        return 1
    return 0


def _cmd_serve(args) -> int:
    if args.smoke:
        return _serve_smoke(args)
    from repro.serve import ProvingService
    from repro.serve.http_server import HttpFrontEnd
    from repro.serve.server import PayloadProcessor

    service = ProvingService(_serve_config(args),
                             metrics=args.obs_registry).start()
    processor = PayloadProcessor(service)
    front_ends = [HttpFrontEnd(processor, args.socket)]
    if args.http_port is not None:
        front_ends.append(HttpFrontEnd(processor,
                                       (args.http_host, args.http_port)))
    if service.config.cluster_workers:
        log.info("cluster:      %d workers, pids %s",
                 service.config.cluster_workers,
                 [w["pid"] for w in service.status()["cluster"]["workers"]])
    _serve_until_signal(front_ends, service.shutdown, "draining...")
    stats = service.stats()
    log.info("served %d requests in %d batches (mean occupancy %.2f)",
             stats["requests"], stats["batches"], stats["mean_occupancy"])
    return 0


def _cmd_submit(args) -> int:
    from repro.obs.runtime import percentile
    from repro.serve.client import submit_many

    models = [m.strip() for m in args.model.split(",") if m.strip()]
    unknown = [m for m in models if m not in model_names()]
    if unknown:
        log.error("unknown model(s) %s (known: %s)",
                  ",".join(unknown), ",".join(model_names()))
        return 1
    payloads = [
        {"model": models[i % len(models)], "seed": args.seed + i,
         "scheme": args.backend, "columns": args.columns,
         "scale_bits": args.scale_bits, "timeout": args.timeout,
         "priority": args.priority,
         "want_envelope": bool(args.out)}
        for i in range(args.count)
    ]
    responses = submit_many(args.socket, payloads, timeout=args.timeout)
    failed = 0
    for i, response in enumerate(responses):
        if response.get("ok"):
            log.info("request %d: verified=%s batch=%d/%d queued %.3fs "
                     "proved %.3fs (slot %.3fs)  %s", i,
                     response["verified"],
                     response["batch_size"], response["padded_size"],
                     response["queue_seconds"], response["prove_seconds"],
                     response.get("slot_prove_seconds",
                                  response["prove_seconds"]),
                     response.get("request_id", ""))
        else:
            failed += 1
            log.error("request %d: %s: %s", i, response.get("error"),
                      response.get("detail"))
    if args.out:
        import base64

        # one envelope per batch proof, named after its first request
        covers = {}  # batch_id -> indices of the requests it covers
        for i, response in enumerate(responses):
            if response.get("ok") and "envelope_b64" in response:
                requests = covers.setdefault(response["batch_id"], [])
                if not requests:
                    with open("%s.%d.env" % (args.out, i), "wb") as fh:
                        fh.write(base64.b64decode(response["envelope_b64"]))
                requests.append(i)
        for requests in covers.values():
            log.info("envelope:     %s.%d.env (requests %s)", args.out,
                     requests[0], ",".join(map(str, requests)))
    ok_responses = [r for r in responses if r.get("ok")]
    unverified = sum(1 for r in ok_responses if not r.get("verified"))
    latencies = sorted(r["client_seconds"] for r in responses
                       if "client_seconds" in r)
    p50 = percentile(latencies, 0.50)
    p95 = percentile(latencies, 0.95)
    occupancies = [r["batch_size"] for r in ok_responses
                   if "batch_size" in r]
    log.info("submitted %d: %d ok, %d verified, %d failed  |  "
             "latency p50 %s p95 %s  mean occupancy %s",
             len(responses), len(ok_responses),
             len(ok_responses) - unverified, failed,
             "%.3fs" % p50 if p50 is not None else "-",
             "%.3fs" % p95 if p95 is not None else "-",
             "%.2f" % (sum(occupancies) / len(occupancies))
             if occupancies else "-")
    if failed:
        return 1
    if unverified:
        # mirrors `zkml diagnose`: exit 2 = proof-level failure, the
        # request round trip itself was operationally fine
        return 2
    return 0


def _cmd_top(args) -> int:
    """Poll a serving socket's ``status`` op and render the dashboard."""
    from repro.obs.runtime import render_status
    from repro.serve.client import control_request

    remaining = 1 if args.once else args.count
    try:
        while True:
            response = control_request(args.socket, "status",
                                       timeout=args.timeout)
            status = response["status"]
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                if not args.once and args.count is None:
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear, home
                print(render_status(status))
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    # observability options shared by every subcommand
    common = argparse.ArgumentParser(add_help=False)
    obs = common.add_argument_group("observability")
    obs.add_argument("--trace", default=None, metavar="PATH",
                     help="write the span tree (Chrome trace_event JSON; "
                          "'.jsonl' for JSON lines; default: $ZKML_TRACE)")
    obs.add_argument("--metrics", default=None, metavar="PATH",
                     help="write run metrics (Prometheus text format)")
    obs.add_argument("-v", "--verbose", action="count", default=0,
                     help="debug logging")
    obs.add_argument("-q", "--quiet", action="store_true",
                     help="errors only")

    parser = argparse.ArgumentParser(
        prog="zkml",
        description="ZKML: an optimizing compiler from ML models to "
                    "ZK-SNARK circuits (EuroSys '24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list zoo models",
                   parents=[common]).set_defaults(func=_cmd_models)

    inspect = sub.add_parser("inspect", parents=[common],
                             help="circuit statistics for a model")
    inspect.add_argument("--model", required=True, choices=model_names())
    inspect.add_argument("--scale", default="paper", choices=["paper", "mini"])
    inspect.add_argument("--columns", type=int, default=16)
    inspect.add_argument("--scale-bits", type=int, default=8)
    inspect.add_argument("--per-layer", action="store_true",
                         help="print the per-layer row budget")
    inspect.add_argument("--json", action="store_true",
                         help="machine-readable output (includes the same "
                              "counters 'zkml prove --metrics' records)")
    inspect.set_defaults(func=_cmd_inspect)

    transpile_cmd = sub.add_parser(
        "transpile", parents=[common],
        help="import a tflite-like flat JSON model")
    transpile_cmd.add_argument("--flat", required=True)
    transpile_cmd.add_argument("--columns", type=int, default=16)
    transpile_cmd.add_argument("--scale-bits", type=int, default=8)
    transpile_cmd.set_defaults(func=_cmd_transpile)

    opt = sub.add_parser("optimize", parents=[common],
                         help="optimize a circuit layout")
    opt.add_argument("--model", required=True, choices=model_names())
    opt.add_argument("--backend", default="kzg", choices=["kzg", "ipa"])
    opt.add_argument("--objective", default="time", choices=["time", "size"])
    opt.add_argument("--scale-bits", type=int, default=12)
    opt.add_argument("--hardware", default=None, metavar="NAME|PATH",
                     help="built-in profile name (r6i.8xlarge, ...) or a "
                          "calibrated profile JSON from 'zkml calibrate' "
                          "(default: $ZKML_HW_PROFILE, else the paper's "
                          "per-model instance)")
    opt.add_argument("--freivalds", action="store_true",
                     help="allow the Freivalds matmul layout")
    opt.set_defaults(func=_cmd_optimize)

    prove = sub.add_parser("prove", parents=[common],
                           help="prove a mini-model inference")
    prove.add_argument("--model", required=True, choices=model_names())
    prove.add_argument("--backend", default="kzg", choices=["kzg", "ipa"])
    prove.add_argument("--columns", type=int, default=10)
    prove.add_argument("--scale-bits", type=int, default=5)
    prove.add_argument("--seed", type=int, default=0)
    prove.add_argument("--envelope", default=None, metavar="PATH",
                       help="also write the canonical proof envelope "
                            "(zkml-proof-envelope/v2 bytes) to PATH")
    prove.add_argument("--registry", default=None, metavar="DIR",
                       help="publish the verifying key into this registry "
                            "after proving")
    prove.add_argument("--profile", action="store_true",
                       help="print the prover's per-phase time breakdown "
                            "and the predicted-vs-actual op counts")
    prove.set_defaults(func=_cmd_prove)

    diagnose = sub.add_parser(
        "diagnose", parents=[common],
        help="mock-verify a mini model with region-attributed failures")
    diagnose.add_argument("--model", required=True, choices=model_names())
    diagnose.add_argument("--columns", type=int, default=10)
    diagnose.add_argument("--scale-bits", type=int, default=5)
    diagnose.add_argument("--seed", type=int, default=0)
    diagnose.add_argument("--tamper-row", type=int, default=None,
                          help="corrupt the advice cell at this row first")
    diagnose.add_argument("--tamper-col", type=int, default=0,
                          help="advice column of the corrupted cell")
    diagnose.add_argument("--max-failures", type=int, default=10,
                          help="cap on reported violations")
    diagnose.set_defaults(func=_cmd_diagnose)

    # listed for `zkml --help` only: main() hands `bench` to zkbench
    # before this parser sees its arguments
    sub.add_parser(
        "bench", add_help=False,
        help="run benchmarks/zkbench/run.py (every argument is forwarded; "
             "see benchmarks/zkbench/README.md)")

    profile = sub.add_parser(
        "profile", parents=[common],
        help="prove once and attribute rows/cells/time to model layers")
    profile.add_argument("--model", required=True, choices=model_names())
    profile.add_argument("--backend", default="kzg", choices=["kzg", "ipa"])
    profile.add_argument("--columns", type=int, default=10)
    profile.add_argument("--scale-bits", type=int, default=5)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--top", type=int, default=12,
                         help="rows of the ranked layer table to print")
    profile.add_argument("--out", default=None,
                         help="JSON report path (default: "
                              "PROFILE_<model>.json); the Chrome trace and "
                              "folded flamegraph land next to it")
    profile.set_defaults(func=_cmd_profile)

    calibrate = sub.add_parser(
        "calibrate", parents=[common],
        help="fit the cost model to this machine and write a hardware "
             "profile JSON")
    calibrate.add_argument("--out", default="hardware-profile.json",
                           help="profile JSON output path")
    calibrate.add_argument("--ks", nargs="+", type=int,
                           default=[8, 9, 10, 11, 12],
                           help="microbenchmark sizes (2^k)")
    calibrate.add_argument("--backend", default="kzg",
                           choices=["kzg", "ipa"])
    calibrate.add_argument("--name", default="local-calibrated",
                           help="name recorded in the profile")
    calibrate.add_argument("--probe", default="gpt2",
                           help="mini model proved to measure prediction "
                                "drift ('none' to skip)")
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--strict", action="store_true",
                           help="exit 1 if calibration does not reduce "
                                "probe drift vs the static default")
    calibrate.set_defaults(func=_cmd_calibrate)

    verify = sub.add_parser("verify", parents=[common],
                            help="verify a proof envelope against its "
                                 "published key")
    verify.add_argument("--envelope", required=True, metavar="PATH",
                        help="zkml-proof-envelope/v2 bytes (zkml prove "
                             "--envelope, zkml submit --out)")
    verify.add_argument("--registry", default=None, metavar="DIR",
                        help="verifying-key registry resolving the "
                             "envelope's vk hash (exit 3 when the key "
                             "is absent)")
    verify.set_defaults(func=_cmd_verify)

    registry = sub.add_parser(
        "registry",
        help="manage the content-addressed verifying-key registry")
    regsub = registry.add_subparsers(dest="registry_cmd", required=True)
    reg_list = regsub.add_parser("list", parents=[common],
                                 help="list published verifying keys")
    reg_list.add_argument("--registry", required=True, metavar="DIR")
    reg_list.add_argument("--json", action="store_true",
                          help="machine-readable index records")
    reg_list.set_defaults(func=_cmd_registry)
    reg_check = regsub.add_parser(
        "check", parents=[common],
        help="re-verify every artifact checksum (exit 1 on corruption)")
    reg_check.add_argument("--registry", required=True, metavar="DIR")
    reg_check.add_argument("--json", action="store_true")
    reg_check.add_argument("--repair", action="store_true",
                           help="evict corrupt entries (the publisher "
                                "re-runs 'zkml prove --registry' to "
                                "rebuild)")
    reg_check.set_defaults(func=_cmd_registry)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the batch-aware proving service on a unix socket")
    serve.add_argument("--socket", default="zkml-serve.sock",
                       help="unix socket path to bind")
    serve.add_argument("--model", default="dlrm", choices=model_names(),
                       help="model the --smoke load test proves")
    serve.add_argument("--backend", default="kzg", choices=["kzg", "ipa"])
    serve.add_argument("--columns", type=int, default=10)
    serve.add_argument("--scale-bits", type=int, default=5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-batch", type=int, default=8,
                       help="flush a group at this many coalesced requests")
    serve.add_argument("--flush-ms", type=float, default=250.0,
                       help="ceiling on how long the oldest request waits")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="bounded queue size (backpressure beyond this)")
    serve.add_argument("--workers", type=int, default=0,
                       help="prover worker *processes* (cluster mode); "
                            "0 proves on one in-process worker thread "
                            "under the same scheduler (default)")
    serve.add_argument("--registry", default=None, metavar="DIR",
                       help="state directory: publish every served "
                            "verifying key into this registry; workers "
                            "share a disk proving-key cache there")
    serve.add_argument("--max-backlog", type=int, default=8,
                       help="per-model batches queued for worker dispatch "
                            "before load shedding (bulk is shed first)")
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="also serve on this TCP port (0 = "
                            "ephemeral; the same HTTP/JSON as the socket)")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="bind address for --http-port")
    serve.add_argument("--smoke", type=int, default=0, metavar="N",
                       help="submit N in-process requests, assert they all "
                            "verify and actually coalesced, then exit")
    serve.add_argument("--fault", action="store_true",
                       help="with --smoke: also force one batch failure "
                            "(poisoned inputs) and assert the flight "
                            "recorder dumped a verifiable artifact")
    serve.add_argument("--flight-recorder", default="zkml-flightrec.json",
                       metavar="PATH",
                       help="where flight-recorder dumps land on a batch "
                            "failure, overload storm, or shutdown "
                            "('' disables automatic dumps)")
    serve.set_defaults(func=_cmd_serve)

    vserve = sub.add_parser(
        "verify-serve", parents=[common],
        help="run the hardened envelope verification service on a "
             "unix socket")
    vserve.add_argument("--socket", default="zkml-verify.sock",
                        help="unix socket path to bind")
    vserve.add_argument("--registry", default=None, metavar="DIR",
                        help="verifying-key registry the service trusts "
                             "(without one, every envelope is rejected "
                             "unknown_vk)")
    vserve.add_argument("--max-batch", type=int, default=32,
                        help="envelopes per request; more is rejected "
                             "before any decoding")
    vserve.add_argument("--max-inflight", type=int, default=4,
                        help="concurrent requests before load shedding")
    vserve.add_argument("--deadline", type=float, default=60.0,
                        help="per-request wall-clock budget (seconds)")
    vserve.add_argument("--max-request-mb", type=int, default=64,
                        help="cap on one request body (base64 envelopes "
                             "ride inside it)")
    vserve.add_argument("--flight-recorder",
                        default="zkml-verify-flightrec.json", metavar="PATH",
                        help="where flight-recorder dumps land on an "
                             "overload storm or shutdown ('' disables)")
    vserve.set_defaults(func=_cmd_verify_serve)

    submit = sub.add_parser(
        "submit", parents=[common],
        help="send proof requests to a running 'zkml serve' socket")
    submit.add_argument("--socket", default="zkml-serve.sock",
                        help="unix socket path, or the http://host:port "
                             "URL of 'zkml serve --http-port'")
    submit.add_argument("--model", required=True,
                        help="zoo model name; a comma-separated list "
                             "round-robins requests across models "
                             "(mixed-model traffic)")
    submit.add_argument("--priority", default="interactive",
                        choices=["interactive", "bulk"],
                        help="dispatch class (bulk is shed first under "
                             "overload)")
    submit.add_argument("--count", type=int, default=1,
                        help="concurrent requests to send")
    submit.add_argument("--seed", type=int, default=0,
                        help="input seed for the first request "
                             "(request i uses seed+i)")
    submit.add_argument("--backend", default="kzg", choices=["kzg", "ipa"])
    submit.add_argument("--columns", type=int, default=10)
    submit.add_argument("--scale-bits", type=int, default=5)
    submit.add_argument("--timeout", type=float, default=120.0)
    submit.add_argument("--out", default=None, metavar="PREFIX",
                        help="write each proof envelope to PREFIX.<i>.env "
                             "(zkml verify --envelope reads it)")
    submit.set_defaults(func=_cmd_submit)

    top = sub.add_parser(
        "top", parents=[common],
        help="live dashboard for a running 'zkml serve' socket")
    top.add_argument("--socket", default="zkml-serve.sock",
                     help="unix socket path, or an http://host:port URL")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between status polls")
    top.add_argument("--count", type=int, default=None, metavar="N",
                     help="render N snapshots then exit (default: forever)")
    top.add_argument("--once", action="store_true",
                     help="render one snapshot and exit (no screen clear)")
    top.add_argument("--json", action="store_true",
                     help="print the raw status JSON instead of the "
                          "dashboard (scripting; pairs with --once)")
    top.add_argument("--timeout", type=float, default=10.0,
                     help="per-poll socket timeout")
    top.set_defaults(func=_cmd_top)
    return parser


def _report_failure(exc: ResilienceError) -> int:
    """A typed pipeline failure exits with a structured log line, not a
    traceback — the attribution says which phase/layer to blame."""
    fields = dict(exc.attribution())
    fields.setdefault("detail", exc.args[0] if exc.args else "")
    log.error("failed", **fields)
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        # every argument belongs to zkbench, --trace / -v / --help included
        return _cmd_bench(argv[1:])
    args = build_parser().parse_args(argv)
    obs_log.configure(verbosity=args.verbose, quiet=args.quiet)
    trace_path = args.trace or os.environ.get("ZKML_TRACE") or None
    metrics_path = args.metrics
    args.obs_registry = MetricsRegistry() if metrics_path else None
    try:
        if trace_path:
            tracer = Tracer()
            with use_tracer(tracer):
                rc = args.func(args)
            tracer.write(trace_path)
            log.info("trace:        %s", trace_path)
        else:
            rc = args.func(args)
    except ResilienceError as exc:
        rc = _report_failure(exc)
    if args.obs_registry is not None:
        events.merge_into(args.obs_registry)
        args.obs_registry.write(metrics_path)
        log.info("metrics:      %s", metrics_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
