"""`VerifyService`: hostile envelopes in, deterministic verdicts out.

The service's contract, tested layer by layer: request-level caps raise
typed errors before any decoding; per-envelope failures reject
*themselves* (typed cause, input order preserved) without failing
batch-mates; identical input bytes always produce identical verdicts;
and every rejection is accounted under its taxonomy cause.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.envelope.format import MAX_ENVELOPE_BYTES, MAX_PROOF_BYTES, MAX_PUBLIC_INPUTS
from repro.field import gl64, native
from repro.halo2.column import ColumnType
from repro.halo2.shape import HELPER_ROUND
from repro.model import get_model
from repro.obs.runtime import OVERLOAD_DUMP_THRESHOLD, RuntimeTelemetry
from repro.registry import VKRegistry
from repro.resilience import events
from repro.resilience.errors import (
    DeadlineExceeded,
    KernelUnavailableError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.runtime import prove_model
from repro.serve import VerifyConfig, VerifyService

from tests.fuzz import OFF_KEY_SHAPES, spy_proof_parsing

rng = np.random.default_rng(43)


@pytest.fixture(scope="module")
def proven():
    spec = get_model("dlrm", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                       scale_bits=5)


@pytest.fixture(scope="module")
def encoded(proven):
    return proven.envelope().encode()


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, proven):
    root = str(tmp_path_factory.mktemp("vkreg"))
    env = proven.envelope()
    VKRegistry(root).publish(proven.vk, env.model, env.config_digest)
    return root


@pytest.fixture()
def service(registry_dir):
    svc = VerifyService(registry=VKRegistry(registry_dir),
                        config=VerifyConfig())
    yield svc
    svc.close()


def _tampered_checksum(encoded):
    bad = bytearray(encoded)
    bad[-1] ^= 0xFF
    return bytes(bad)


def _relabeled(proven, **changes):
    """A well-formed envelope with mutated metadata, checksum valid."""
    return dataclasses.replace(proven.envelope(), **changes).encode()


def _unknown_vk(encoded, model_len):
    """Flip a vk-hash byte and recompute the checksum: structurally
    perfect, integrity-passing, but the key is not in any registry."""
    body = bytearray(encoded[:-16])
    # schema, scheme ("kzg") and model strings, then the scalar-width byte
    offset = 1 + len("zkml-proof-envelope/v2") + 1 + 3 + 1 + model_len + 1
    body[offset] ^= 0xFF
    return bytes(body) + hashlib.blake2b(bytes(body),
                                         digest_size=16).digest()


class TestVerdicts:
    def test_mixed_batch_keeps_input_order(self, service, proven, encoded):
        batch = [
            encoded,
            _tampered_checksum(encoded),
            _unknown_vk(encoded, len(proven.envelope().model)),
            encoded,
        ]
        report = service.verify_batch(batch)
        assert report["batch_size"] == 4
        assert report["accepted"] == 2 and report["rejected"] == 2
        verdicts = report["results"]
        assert [v["index"] for v in verdicts] == [0, 1, 2, 3]
        assert verdicts[0]["ok"] and verdicts[3]["ok"]
        assert verdicts[1]["cause"] == "checksum"
        assert verdicts[2]["cause"] == "unknown_vk"
        # a rejected envelope never sinks its batch-mates
        assert verdicts[0]["vk_hash"] == proven.vk.digest().hex()

    def test_truncated_envelope_cause(self, service, encoded):
        report = service.verify_batch([encoded[:50]])
        (verdict,) = report["results"]
        assert not verdict["ok"] and verdict["cause"] == "truncated"
        assert verdict["error"] == "EnvelopeTruncatedError"

    def test_garbage_bytes_cause(self, service):
        report = service.verify_batch([b"\x00" * 64])
        (verdict,) = report["results"]
        assert not verdict["ok"]
        assert verdict["cause"] in ("schema", "truncated")

    def test_relabeled_model_rejected_via_registry_binding(self, service,
                                                           proven):
        # proof still verifies mathematically; the registry is what binds
        # the (model, config) metadata — a relabel must be caught
        mutant = _relabeled(proven, model="mnist-mini")
        report = service.verify_batch([mutant])
        (verdict,) = report["results"]
        assert not verdict["ok"] and verdict["cause"] == "verify_failed"
        assert "does not match registry entry" in verdict["detail"]

    def test_relabeled_config_rejected(self, service, proven):
        mutant = _relabeled(proven, config_digest=bytes(16))
        (verdict,) = service.verify_batch([mutant])["results"]
        assert not verdict["ok"] and verdict["cause"] == "verify_failed"

    def test_tampered_instance_rejected_as_verify_failed(self, service,
                                                         proven):
        env = proven.envelope()
        instance = [list(col) for col in env.instance]
        instance[0][0] += 1
        mutant = dataclasses.replace(env, instance=instance).encode()
        (verdict,) = service.verify_batch([mutant])["results"]
        assert not verdict["ok"] and verdict["cause"] == "verify_failed"

    @pytest.mark.parametrize("reshape", sorted(OFF_KEY_SHAPES))
    def test_off_key_shape_rejected_as_proof_format(self, service, proven,
                                                    reshape, monkeypatch):
        parsed = spy_proof_parsing(monkeypatch)
        mutant = OFF_KEY_SHAPES[reshape](proven.envelope()).encode()
        (verdict,) = service.verify_batch([mutant])["results"]
        assert not verdict["ok"] and verdict["cause"] == "proof_format"
        assert verdict["error"] == "ProofFormatError"
        assert parsed == []

    def test_no_registry_rejects_everything_unknown_vk(self, encoded):
        lone = VerifyService(registry=None)
        (verdict,) = lone.verify_batch([encoded])["results"]
        assert not verdict["ok"] and verdict["cause"] == "unknown_vk"


class TestDeterminism:
    def test_same_bytes_same_verdict_property(self, service, proven,
                                              encoded):
        # property test over a spread of mutants: verdicts are a pure
        # function of the input bytes (modulo timing fields)
        mutants = [encoded, _tampered_checksum(encoded), encoded[:33],
                   b"", b"\xff" * 100,
                   _unknown_vk(encoded, len(proven.envelope().model)),
                   _relabeled(proven, model="mnist-mini")]
        local = np.random.default_rng(5)
        for _ in range(8):
            flip = bytearray(encoded)
            pos = int(local.integers(0, len(flip)))
            flip[pos] ^= int(local.integers(1, 256))
            mutants.append(bytes(flip))

        def verdicts(batch):
            report = service.verify_batch(batch)
            return [{k: v for k, v in r.items()} for r in report["results"]]

        first = verdicts(mutants)
        second = verdicts(list(mutants))
        assert first == second

    def test_registry_fetch_amortized_per_key(self, registry_dir, encoded):
        class CountingRegistry(VKRegistry):
            resolves = 0
            index_reads = 0

            def resolve(self, vk_hash):
                type(self).resolves += 1
                return super().resolve(vk_hash)

            def _load_index(self):
                type(self).index_reads += 1
                return super()._load_index()

        svc = VerifyService(registry=CountingRegistry(registry_dir))
        report = svc.verify_batch([encoded] * 6)
        assert report["accepted"] == 6
        # one fetch, one index read, for six envelopes
        assert (CountingRegistry.resolves, CountingRegistry.index_reads) \
            == (1, 1)


class TestRequestCaps:
    def test_batch_cap_rejected_before_decoding(self, registry_dir,
                                                encoded):
        svc = VerifyService(registry=VKRegistry(registry_dir),
                            config=VerifyConfig(max_batch=2))
        with pytest.raises(ServiceError, match="cap"):
            svc.verify_batch([encoded] * 3)
        assert svc.stats()["rejections_by_cause"].get("batch_cap") == 1

    def test_envelope_over_the_decoder_ceiling_rejected_as_cap(self, service,
                                                                encoded):
        oversized = encoded + bytes(MAX_ENVELOPE_BYTES + 1 - len(encoded))
        (verdict,) = service.verify_batch([oversized])["results"]
        assert not verdict["ok"] and verdict["cause"] == "cap"

    def test_overload_shed_typed(self, registry_dir, encoded):
        svc = VerifyService(registry=VKRegistry(registry_dir),
                            config=VerifyConfig(max_inflight=0,
                                                flight_path=None))
        with pytest.raises(ServiceOverloadedError):
            svc.verify_batch([encoded])
        assert svc.stats()["rejections_by_cause"].get("overload") == 1

    def test_overload_storms_dump_through_the_per_reason_limit(
            self, registry_dir, encoded, tmp_path):
        # the verify service's storm dumps take the proving service's
        # path: a second storm inside the auto-dump interval is
        # suppressed and counted, not written again
        now = [1000.0]
        svc = VerifyService(registry=VKRegistry(registry_dir),
                            config=VerifyConfig(max_inflight=0))
        svc.runtime = RuntimeTelemetry(dump_path=str(tmp_path / "f.json"),
                                       clock=lambda: now[0])
        for storm in range(2):
            for _ in range(OVERLOAD_DUMP_THRESHOLD):
                with pytest.raises(ServiceOverloadedError):
                    svc.verify_batch([encoded])
            now[0] += 1.5  # past the storm window, inside the interval
        assert svc.runtime.recorder.dumps == 1
        assert svc.runtime.suppressed_dumps == 1
        assert svc.status()["flight_recorder"]["suppressed_dumps"] == 1

    def test_deadline_exceeded_typed(self, registry_dir, encoded):
        svc = VerifyService(registry=VKRegistry(registry_dir),
                            config=VerifyConfig(deadline_seconds=0.0))
        with pytest.raises(DeadlineExceeded):
            svc.verify_batch([encoded, encoded])
        assert svc.stats()["rejections_by_cause"].get("deadline") == 1

    def test_shutdown_rejects_new_requests(self, service, encoded):
        service.close()
        with pytest.raises(ServiceShutdownError):
            service.verify_batch([encoded])

    def test_no_field_kernel_is_an_error_not_a_verdict(self, service, encoded,
                                                      monkeypatch):
        # a box that cannot build the kernel checked nothing: it must not
        # answer "rejected" (nor "accepted") for a proof
        monkeypatch.setattr(native, "_handle",
                            KernelUnavailableError("no C compiler: none here"))
        with pytest.raises(KernelUnavailableError, match="^no C compiler"):
            service.verify_batch([encoded])
        assert service.stats()["rejections_by_cause"] == {}


class TestOperatorSurface:
    def test_health_is_cheap_and_truthful(self, service):
        health = service.health()
        assert health["ok"] and health["accepting"]
        assert health["slots_free"] == service.config.max_inflight

    def test_status_schema_and_counters(self, service, encoded):
        service.verify_batch([encoded, _tampered_checksum(encoded)])
        status = service.status()
        assert status["schema"] == "zkml-verify-status/v1"
        assert status["counters"]["envelopes"] == 2
        assert status["counters"]["accepted"] == 1
        assert status["counters"]["rejections_by_cause"] == {"checksum": 1}
        assert status["registry"]["configured"]
        assert status["registry"]["entries"] == 1
        assert status["limits"] == {
            "max_batch": service.config.max_batch,
            "max_inflight": service.config.max_inflight,
            "deadline_seconds": service.config.deadline_seconds,
            "max_envelope_bytes": MAX_ENVELOPE_BYTES,
            "max_public_inputs": MAX_PUBLIC_INPUTS,
            "max_proof_bytes": MAX_PROOF_BYTES,
        }
        assert "slo" in status and "flight_recorder" in status

    def test_metrics_counters_by_cause(self, service, encoded):
        service.verify_batch([_tampered_checksum(encoded)])
        text = service.metrics.to_prometheus()
        assert "verify_requests_total" in text
        assert 'verify_rejected_total{cause="checksum"}' in text
        assert "verify_request_seconds" in text

    def test_events_unaffected_by_clean_verify(self, service, encoded):
        events.reset()
        service.verify_batch([encoded])
        assert not any("escal" in k for k in events.counts())


class TestKeysFromOlderBuilds:
    def test_a_key_caching_limb_table_twiddles_loads_and_verifies(
            self, proven, encoded, tmp_path):
        # older builds cached each NTT's twiddles as gl64._Stages (per-stage
        # (2, 2^s) limb tables plus the packed words), in the vk's domain
        # and in its six-step plans; such a pickle must load and verify
        vk = pickle.loads(pickle.dumps(proven.vk))
        domain = vk.domain
        assert domain._np_stages

        def limb_tables(packed):
            old, start = gl64._Stages(), 0
            while start < len(packed):
                span = start + 1
                words = packed[start:start + span]
                old.append(np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)]))
                start += span
            old.packed = packed
            return old

        for key, packed in list(domain._np_stages.items()):
            domain._np_stages[key] = limb_tables(packed)
        plan = gl64.build_sixstep_plan(domain.omega, domain.n)
        plan.stages_inner = limb_tables(plan.stages_inner)
        plan.stages_outer = limb_tables(plan.stages_outer)
        domain._np_sixstep[(domain.omega, domain.n, 1)] = plan
        assert b"_Stages" in pickle.dumps(vk)

        registry = VKRegistry(str(tmp_path))
        env = proven.envelope()
        registry.publish(vk, env.model, env.config_digest)
        loaded = registry.get(vk.digest().hex())
        assert loaded.domain._np_stages == {} and loaded.domain._np_sixstep == {}
        svc = VerifyService(registry=registry)
        try:
            report = svc.verify_batch([encoded])
        finally:
            svc.close()
        assert report["accepted"] == 1, report
        assert registry.entry(vk.digest().hex()).vk_hash == vk.digest().hex()

    def test_a_key_without_a_proof_shape_loads_and_verifies(
            self, proven, encoded, tmp_path):
        # older builds stored the key's degree, helper-column count and
        # advice queries (and cached its claims) where the key now keeps
        # its proof shape; such a pickle must load, pass the registry's
        # digest check and verify
        vk = pickle.loads(pickle.dumps(proven.vk))
        shape = vk.__dict__.pop("shape")
        vk.__dict__.update(
            max_degree=shape.max_degree,
            num_helper_advice=shape.round_widths[HELPER_ROUND],
            advice_queries=sorted(
                {(col, rot) for _, expr in vk.constraints
                 for col, rot in expr.refs() if col.kind == ColumnType.ADVICE},
                key=lambda q: (q[0].index, q[1])),
            _claims=list(shape.claims))
        assert b"ProofShape" not in pickle.dumps(vk)

        registry = VKRegistry(str(tmp_path))
        env = proven.envelope()
        registry.publish(vk, env.model, env.config_digest)
        loaded = registry.get(vk.digest().hex())
        assert loaded.shape == shape
        assert not {"max_degree", "num_helper_advice", "advice_queries",
                    "_claims"} & set(vars(loaded))
        svc = VerifyService(registry=registry)
        try:
            report = svc.verify_batch([encoded])
        finally:
            svc.close()
        assert report["accepted"] == 1, report
