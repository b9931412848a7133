"""Socket round-trip tests: the front end on a unix socket + the
``zkml submit`` client."""

import base64

import pytest

from repro.cli import main
from repro.envelope import decode_envelope
from repro.halo2.proof import proof_from_bytes
from repro.model.zoo import get_model, seeded_inputs
from repro.obs import log as obs_log
from repro.runtime.pipeline import prove_model
from repro.serve import ProvingService, ServeConfig
from repro.serve.client import submit_many, submit_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import PayloadProcessor


@pytest.fixture()
def served(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    service = ProvingService(ServeConfig(max_batch=4,
                                         max_flush_seconds=0.2)).start()
    server = HttpFrontEnd(PayloadProcessor(service), socket_path).start()
    yield socket_path, service
    server.stop()
    service.shutdown()
    obs_log.set_level("info")  # `-q` runs mute the shared logger


class TestSocketRoundTrip:
    def test_concurrent_submits_coalesce_and_verify(self, served):
        socket_path, service = served
        payloads = [{"model": "dlrm", "seed": i} for i in range(4)]
        responses = submit_many(socket_path, payloads, timeout=300.0)
        assert all(r["ok"] for r in responses)
        assert all(r["verified"] for r in responses)
        assert all(r["model"] == "dlrm-mini" for r in responses)
        # 4 concurrent connections over one model -> at least one real batch
        assert service.stats()["batches"] >= 1
        assert max(r["batch_size"] for r in responses) > 1
        # identical seed => identical statement => identical outputs
        again = submit_request(socket_path, {"model": "dlrm", "seed": 0},
                               timeout=300.0)
        assert again["outputs"] == responses[0]["outputs"]

    def test_want_proof_returns_parseable_proof(self, served):
        # the envelope is the one proof form on the wire: there is no
        # separate raw-proof field
        socket_path, _ = served
        response = submit_request(
            socket_path, {"model": "dlrm", "seed": 3, "want_envelope": True},
            timeout=300.0)
        assert response["ok"] and response["verified"]
        assert "proof_b64" not in response
        env = decode_envelope(base64.b64decode(response["envelope_b64"]))
        assert env.model == "dlrm-mini"
        assert proof_from_bytes(env.proof_bytes) is not None

    def test_submit_out_then_verify_against_the_published_key(self, served,
                                                              tmp_path):
        # zkml submit --out writes envelopes that zkml verify --envelope
        # checks against the key zkml prove --registry published
        socket_path, _ = served
        registry = str(tmp_path / "registry")
        prefix = str(tmp_path / "served")
        assert main(["prove", "--model", "dlrm", "--registry", registry,
                     "-q"]) == 0
        assert main(["submit", "--socket", socket_path, "--model", "dlrm",
                     "--count", "1", "--out", prefix, "-q"]) == 0
        assert main(["verify", "--envelope", prefix + ".0.env",
                     "--registry", registry, "-q"]) == 0

    def test_submit_out_writes_one_envelope_per_batch(self, tmp_path):
        # a group flushes only when full, so both requests ride one batch
        # proof: one file, named after the first request, whose instance
        # holds each request's slot
        socket_path = str(tmp_path / "pair.sock")
        service = ProvingService(ServeConfig(max_batch=2,
                                             max_flush_seconds=60.0)).start()
        server = HttpFrontEnd(PayloadProcessor(service), socket_path).start()
        prefix = str(tmp_path / "served")
        try:
            assert main(["submit", "--socket", socket_path, "--model",
                         "dlrm", "--count", "2", "--out", prefix, "-q"]) == 0
        finally:
            server.stop()
            service.shutdown()
            obs_log.set_level("info")
        assert service.stats()["batches"] == 1
        assert [p.name for p in tmp_path.glob("served.*.env")] == \
            ["served.0.env"]
        env = decode_envelope((tmp_path / "served.0.env").read_bytes())
        spec = get_model("dlrm", "mini")
        slots = [prove_model(spec, seeded_inputs(spec, seed)).instance[0]
                 for seed in (0, 1)]
        assert env.instance == slots

    def test_unknown_model_is_a_typed_error_not_a_crash(self, served):
        socket_path, _ = served
        response = submit_request(socket_path, {"model": "nope"},
                                  timeout=60.0)
        assert response.pop("client_seconds") >= 0.0
        assert response == {"ok": False, "error": "ServiceError",
                            "detail": response["detail"]}
        assert "unknown model" in response["detail"]
        # the accept loop survived: a good request still goes through
        good = submit_request(socket_path, {"model": "dlrm", "seed": 1},
                              timeout=300.0)
        assert good["ok"] and good["verified"]

    def test_bad_input_shape_rejected(self, served):
        socket_path, _ = served
        response = submit_request(
            socket_path,
            {"model": "dlrm", "inputs": {"dense": [1.0, 2.0]}},
            timeout=60.0)
        assert not response["ok"]
        assert response["error"] == "ServiceError"
