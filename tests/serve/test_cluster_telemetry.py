"""The cluster telemetry plane: stitching, aggregation, and parity.

What PR 10 promises, pinned as tests:

- worker span trees ship back on the result queue and stitch under the
  parent's ``serve:batch`` span by ``batch_id`` — one Chrome trace with
  the parent lane plus one lane per worker pid;
- worker STATS deltas and pk-cache counters fold into the parent
  registry under per-worker labels, next to the scheduler's own backlog
  gauges and dispatch histogram;
- ``status`` speaks ``zkml-serve-status/v2`` with a per-worker
  ``telemetry`` block and per-priority-class SLO windows;
- the whole plane is observational: proof and envelope bytes are
  byte-identical traced and untraced;
- span capture follows the service's tracer (no knob): tracer disabled
  means an empty ``BatchResult.spans``, while op deltas and
  pk-cache counters ride along and fold either way;
- ``zkml top --once --json`` sees the same status over the unix socket
  and the HTTP front end (both feed ``render_status``).
"""

import json
import os
import time
from types import SimpleNamespace

import numpy as np

from repro.model import GraphBuilder
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import render_status
from repro.obs.trace import Tracer
from repro.serve import ProvingService, ServeConfig
from repro.serve.client import control_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.scheduler import ClusterScheduler
from repro.serve.server import PayloadProcessor
from repro.serve.service import BatchKey, ProofRequest
from repro.serve.worker import BatchResult

rng = np.random.default_rng(31)


def small_model(name="telemetered"):
    gb = GraphBuilder(name, materialize=True, seed=4)
    x = gb.input("x", (1, 4))
    h = gb.fully_connected(x, 4, 3)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 3, 2)
    return gb.build([out])


def an_input(seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return {"x": r.uniform(-1, 1, (1, 4))}


def _cluster_config(tmp_path, **overrides):
    settings = dict(max_batch=2, max_flush_seconds=0.02,
                    cluster_workers=2,
                    registry_dir=str(tmp_path / "state"))
    settings.update(overrides)
    return ServeConfig(**settings)


class TestTraceStitching:
    def test_worker_lanes_stitched_under_serve_batch(self, tmp_path):
        spec = small_model("tel-stitch")
        tracer = Tracer()
        with ProvingService(_cluster_config(tmp_path),
                            tracer=tracer) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(8)]
            responses = [f.result(timeout=300) for f in futures]
        assert all(r.verified for r in responses)

        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        batches = [s for s in spans if s.name == "serve:batch"]
        proves = [s for s in spans if s.name == "worker:prove"]
        waits = [s for s in spans if s.name == "serve:queue-wait"]
        assert batches and proves and waits

        parent_pid = os.getpid()
        # every serve:batch span is on the parent lane and carries ids
        for span in batches:
            assert span.pid == parent_pid
            assert span.attrs["batch_id"].startswith("batch-")
            assert span.attrs["request_ids"]
            assert span.end >= span.start
        # every worker:prove span sits on a *worker* pid lane and its
        # parent is the serve:batch span for the same batch_id
        batch_span_ids = {s.span_id: s for s in batches}
        for span in proves:
            assert span.pid != parent_pid
            parent = batch_span_ids[span.parent_id]
            assert parent.attrs["batch_id"] == span.attrs["batch_id"]
            # worker and parent share the perf_counter timeline: the
            # prove happened inside the parent's batch window
            assert parent.start <= span.start
            assert span.end <= parent.end + 1e-6
        # queue-wait children link to their batch span too
        for span in waits:
            assert by_id[span.parent_id].name == "serve:batch"

        # worker sub-spans (the prove pipeline) landed under worker:prove
        prove_ids = {s.span_id for s in proves}
        nested = [s for s in spans if s.parent_id in prove_ids]
        assert nested, "worker pipeline spans should nest under worker:prove"

        # the Chrome export gives each worker pid its own named process
        doc = tracer.to_chrome_trace()
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        worker_lanes = {n for n in lanes if n.startswith("zkml worker ")}
        assert "zkml" in lanes
        worker_pids = {s.pid for s in proves}
        assert worker_lanes == {"zkml worker %d" % p for p in worker_pids}
        assert len(worker_lanes) >= 1  # >=1 worker proved (usually both)

    def test_telemetry_off_records_no_worker_spans(self, tmp_path):
        """Tracer disabled: the worker captures (and pickles) no spans,
        but the op delta and pk-cache counters still ride along."""
        spec = small_model("tel-off")
        service = ProvingService(_cluster_config(tmp_path,
                                                 cluster_workers=1))
        results = []
        scheduler = service._scheduler
        resolve = scheduler.on_result
        scheduler.on_result = lambda result: (results.append(result),
                                              resolve(result))
        with service:
            assert service.submit(spec, an_input(),
                                  scale_bits=6).result(timeout=300).verified
        assert len(results) == 1
        result = results[0]
        assert result.spans == []
        assert result.stats_delta["commitments"] > 0
        assert "entries" in result.pk_cache


class TestByteIdentity:
    def test_proofs_byte_identical_with_telemetry_on_and_off(self, tmp_path):
        spec = small_model("tel-parity")
        inputs = [an_input(seed=300 + i) for i in range(3)]

        def run(telemetry, sub):
            config = ServeConfig(
                max_batch=1, max_flush_seconds=0.02, cluster_workers=1,
                registry_dir=str(tmp_path / sub))
            tracer = Tracer() if telemetry else None
            metrics = MetricsRegistry() if telemetry else None
            with ProvingService(config, tracer=tracer,
                                metrics=metrics) as service:
                return [service.submit(spec, inp, scale_bits=6).result(
                    timeout=300) for inp in inputs]

        noisy = run(True, "pk-on")
        quiet = run(False, "pk-off")
        for a, b in zip(noisy, quiet):
            assert a.verified and b.verified
            assert a.envelope_bytes == b.envelope_bytes


class TestAggregatedMetrics:
    def test_per_worker_and_scheduler_series(self, tmp_path):
        spec = small_model("tel-metrics")
        metrics = MetricsRegistry()
        with ProvingService(_cluster_config(tmp_path),
                            metrics=metrics) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(8)]
            for f in futures:
                assert f.result(timeout=300).verified
            status = service.status()
            stats = service.stats()

        # per-worker ledger: every series is labeled by logical worker id
        worker_batches = metrics.values("zkml_worker_batches_total")
        workers = {dict(key)["worker"] for key in worker_batches}
        assert workers and workers <= {"0", "1"}
        assert sum(worker_batches.values()) == stats["batches"]
        prove_secs = metrics.values("zkml_worker_prove_seconds_total")
        assert sum(prove_secs.values()) > 0
        ops = {dict(key)["op"]
               for key in metrics.values("zkml_worker_ops_total")}
        assert "commitments" in ops and "ntt_base" in ops
        pk_fields = {dict(key)["field"]
                     for key in metrics.values("zkml_worker_pk_cache")}
        assert {"entries", "hits", "disk_loads"} <= pk_fields

        # scheduler instrumentation: backlog gauges exist (drained to 0),
        # the dispatch histogram observed every batch
        backlog = metrics.values("zkml_scheduler_backlog")
        assert any(dict(key)["model"] == "tel-metrics" for key in backlog)
        assert {dict(key)["priority"] for key in backlog} == \
            {"interactive", "bulk"}
        assert all(v == 0 for v in backlog.values())  # drained
        assert metrics.value("zkml_scheduler_backlog_total") == 0
        dispatched = metrics.values("zkml_scheduler_dispatched_total")
        assert sum(dispatched.values()) == stats["batches"]
        hist = metrics.histogram("zkml_scheduler_dispatch_seconds")
        assert hist.count == stats["batches"]

        # the same numbers surface in the prometheus exposition
        text = metrics.to_prometheus()
        assert 'zkml_worker_batches_total{worker="' in text
        assert 'zkml_scheduler_backlog{' in text
        assert "zkml_scheduler_dispatch_seconds_count" in text

        # ... and in the status document
        assert status["schema"] == "zkml-serve-status/v2"
        cluster = status["cluster"]
        assert cluster["evicted"] == 0 and cluster["poisoned"] == 0
        assert set(cluster["slo_by_class"]) == {"interactive", "bulk"}
        slo = cluster["slo_by_class"]["interactive"]["total"]
        assert slo["count"] == stats["batches"]
        assert slo["errors"] == 0
        telemetered = [w for w in cluster["workers"] if "telemetry" in w]
        assert telemetered
        rollup = telemetered[0]["telemetry"]
        assert rollup["batches"] >= 1
        assert rollup["prove_seconds"] > 0
        assert rollup["last_batch_id"].startswith("batch-")
        assert rollup["ops_total"] > 0
        assert "entries" in rollup["pk_cache"]
        assert sum(w.get("telemetry", {}).get("batches", 0)
                   for w in cluster["workers"]) == stats["batches"]
        json.dumps(status)  # the whole document stays JSON-serializable

        # the dashboard renders the per-worker panel from that block
        text = render_status(status)
        assert "prove(s)" in text and "last batch" in text

    def test_telemetry_off_still_rolls_up_result_fields(self, tmp_path):
        """Only the span tree follows the tracer: with it disabled the
        rollups and the folded series — op deltas and pk-cache counters
        included — are all still there."""
        spec = small_model("tel-lean")
        metrics = MetricsRegistry()
        config = _cluster_config(tmp_path, cluster_workers=1)
        with ProvingService(config, metrics=metrics) as service:
            assert service.submit(spec, an_input(),
                                  scale_bits=6).result(timeout=300).verified
            status = service.status()
        rollups = [w["telemetry"] for w in status["cluster"]["workers"]
                   if "telemetry" in w]
        assert rollups and all(r["ops"]["commitments"] > 0
                               and "entries" in r["pk_cache"]
                               for r in rollups)
        series = metrics.as_dict()
        assert "zkml_worker_batches_total" in series
        assert "zkml_worker_ops_total" in series
        assert "zkml_worker_pk_cache" in series


class TestDuplicateResult:
    def test_worker_rollup_bills_a_duplicate_result_once(self):
        """A worker that ships its result and dies is re-dispatched, so
        the same job's result can reach the collect loop twice.  The job
        table resolves the first and drops the second; the worker's
        ``telemetry.batches`` must count what its series counts."""
        service = ProvingService(ServeConfig(max_batch=1))  # never started
        service._scheduler.enqueue = lambda job: None
        spec = SimpleNamespace(name="dup")
        request = ProofRequest(id=1, spec=spec, inputs={},
                               key=BatchKey("dup", "kzg", 4, 6, None),
                               submitted_at=time.monotonic(),
                               request_id="req-dup")
        service._launch(request.key, [request])
        (job_id, (_, job)), = service._jobs.items()
        delivered = []

        def on_result(result):
            service._on_result(result)
            delivered.append(result)

        scheduler = ClusterScheduler(workers=1, on_result=on_result,
                                     on_shed=service._on_shed,
                                     metrics=service.metrics).start()
        try:
            with scheduler._lock:
                scheduler._handles[0].current = job
            for _ in range(2):
                scheduler._result_queue.put(BatchResult(
                    job_id=job_id, batch_id=job.batch_id, ok=True,
                    worker_id=0, pid=0, slot_outputs=[{}]))
            deadline = time.monotonic() + 30
            while len(delivered) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            status = scheduler.status()
        finally:
            scheduler.shutdown(drain=False)
        assert len(delivered) == 2
        assert request.future.result(timeout=0).batch_id == job.batch_id
        billed = service.metrics.value("zkml_worker_batches_total",
                                       worker="0")
        assert billed == 1
        telemetry = status["workers"][0]["telemetry"]
        assert telemetry["batches"] == billed
        assert telemetry["last_batch_id"] == job.batch_id


class TestTopParity:
    def test_status_identical_over_socket_and_http(self, tmp_path):
        """`zkml top --once --json` sees one status document, not two.

        Both listeners answer the ``status`` control op through the
        shared :class:`PayloadProcessor`; this pins that the *cluster*
        block — including the per-worker telemetry rollup — reaches a
        TCP ``zkml top`` exactly like a unix-socket one (modulo fields
        that advance with wall clock between the two calls).
        """
        spec = small_model("tel-top")
        socket_path = str(tmp_path / "tel-top.sock")
        with ProvingService(_cluster_config(tmp_path)) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(4)]
            for f in futures:
                assert f.result(timeout=300).verified
            processor = PayloadProcessor(service)
            server = HttpFrontEnd(processor, socket_path).start()
            front = HttpFrontEnd(processor, ("127.0.0.1", 0)).start()
            try:
                via_socket = control_request(socket_path, "status")["status"]
                via_http = control_request(front.target, "status")["status"]
            finally:
                front.stop()
                server.stop()

        def scrub(node):
            """Zero the fields that advance with wall clock between the
            two control calls; everything else must match exactly."""
            if isinstance(node, dict):
                return {k: 0 if k in ("uptime_seconds", "throughput_rps")
                        else scrub(v) for k, v in node.items()}
            if isinstance(node, list):
                return [scrub(v) for v in node]
            return node

        a = scrub(json.loads(json.dumps(via_socket, sort_keys=True)))
        b = scrub(json.loads(json.dumps(via_http, sort_keys=True)))
        assert a["schema"] == b["schema"] == "zkml-serve-status/v2"
        assert set(a) == set(b)
        # the whole cluster block — workers, telemetry rollups, SLO
        # classes — is transport-independent (no new work ran between
        # the calls, so even the counters agree)
        assert a["cluster"] == b["cluster"]
        assert a == b
        # and both render through the zkml-top dashboard path (scrubbed:
        # the header prints the uptime, which advances between the calls)
        assert render_status(b).splitlines()[0] == \
            render_status(a).splitlines()[0]
