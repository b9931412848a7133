"""Tests for the end-to-end audit flow (paper Figure 2)."""

import dataclasses

import numpy as np
import pytest

from repro.envelope import decode_envelope
from repro.layers.base import LayoutChoices
from repro.model import GraphBuilder
from repro.registry import VKRegistry
from repro.resilience.errors import UnknownVerifyingKeyError
from repro.runtime import AuditLog, audit

rng = np.random.default_rng(51)


def scoring_model(seed=1):
    gb = GraphBuilder("audited", materialize=True, seed=seed)
    x = gb.input("features", (1, 4))
    h = gb.fully_connected(x, 4, 3)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 3, 1)
    return gb.build([out])


def serve(log, count):
    for _ in range(count):
        log.serve({"features": rng.uniform(-1, 1, (1, 4))})
    return log


def published_hash(log):
    """The key hash a provider announces: the one its proofs name."""
    return decode_envelope(log.entries[0].envelope).vk_hash_hex


def relabeled(entry, **changes):
    env = dataclasses.replace(decode_envelope(entry.envelope), **changes)
    return dataclasses.replace(entry, envelope=env.encode())


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    return VKRegistry(str(tmp_path_factory.mktemp("registry")))


@pytest.fixture(scope="module")
def served_log(registry):
    log = serve(AuditLog(scoring_model(), registry), 3)
    return log, published_hash(log)


@pytest.fixture(scope="module")
def rogue_log(registry):
    """Three inferences of the same architecture with other weights."""
    return serve(AuditLog(scoring_model(seed=9), registry), 3)


def audit_with(log, registry, vk_hash, index, entry):
    """Audit ``log`` with entry ``index`` replaced or appended (None
    drops it)."""
    original = list(log.entries)
    log.entries[index:index + 1] = [] if entry is None else [entry]
    try:
        return audit(log, registry, vk_hash)
    finally:
        log.entries[:] = original


class TestModelCommitment:
    """The published verifying-key hash is the model commitment."""

    def test_deterministic(self, served_log, registry):
        _, vk_hash = served_log
        again = serve(AuditLog(scoring_model(), registry), 1)
        assert published_hash(again) == vk_hash

    def test_binds_weights(self, served_log, rogue_log):
        _, vk_hash = served_log
        assert published_hash(rogue_log) != vk_hash


class TestCleanAudit:
    def test_no_findings(self, served_log, registry):
        log, vk_hash = served_log
        assert audit(log, registry, vk_hash) == []

    def test_entries_chained(self, served_log):
        log, _ = served_log
        digests = [e.chain_digest for e in log.entries]
        assert len(set(digests)) == len(digests)

    def test_unpublished_key_refused(self, served_log, tmp_path):
        log, vk_hash = served_log
        with pytest.raises(UnknownVerifyingKeyError):
            audit(log, VKRegistry(str(tmp_path)), vk_hash)


class TestDishonestProvider:
    def test_substituted_weights_flag_every_entry(self, served_log,
                                                  rogue_log, registry):
        # the provider announced W's key hash but serves with W'
        _, vk_hash = served_log
        findings = audit(rogue_log, registry, vk_hash)
        assert [(f.index, f.kind) for f in findings] == [
            (0, "model"), (1, "model"), (2, "model")]
        assert vk_hash[:16] in findings[0].detail
        assert published_hash(rogue_log)[:16] in findings[0].detail

    def test_wrong_model_commitment_flagged(self, served_log, rogue_log,
                                            registry):
        log, _ = served_log
        findings = audit(log, registry, published_hash(rogue_log))
        assert {f.kind for f in findings} == {"model"}
        assert len(findings) == len(log.entries)

    def test_swapped_circuit_flagged(self, served_log, rogue_log, registry):
        # an entry proven under another circuit, appended to the log
        log, vk_hash = served_log
        findings = audit_with(log, registry, vk_hash, 3, rogue_log.entries[0])
        # named by its place in this log, not the index its provider wrote
        assert [(f.index, f.kind) for f in findings] == [
            (3, "model"), (3, "chain")]

    def test_tampered_envelope_bytes_flagged(self, served_log, registry):
        log, vk_hash = served_log
        data = bytearray(log.entries[1].envelope)
        data[-1] ^= 0xFF
        tampered = dataclasses.replace(log.entries[1], envelope=bytes(data))
        findings = audit_with(log, registry, vk_hash, 1, tampered)
        assert [(f.index, f.kind) for f in findings] == [(1, "proof")]

    def test_forged_output_flagged(self, served_log, registry):
        log, vk_hash = served_log
        env = decode_envelope(log.entries[1].envelope)
        forged = [list(col) for col in env.instance]
        forged[0][0] += 1
        findings = audit_with(log, registry, vk_hash, 1,
                              relabeled(log.entries[1], instance=forged))
        assert [(f.index, f.kind) for f in findings] == [(1, "proof")]

    @pytest.mark.parametrize("changes", [
        {"model": "another-model"},
        {"config_digest": bytes(16)},
    ], ids=["model", "config_digest"])
    def test_relabeled_envelope_flagged(self, served_log, registry, changes):
        log, vk_hash = served_log
        findings = audit_with(log, registry, vk_hash, 2,
                              relabeled(log.entries[2], **changes))
        assert [(f.index, f.kind) for f in findings] == [(2, "model")]

    def test_dropped_entry_breaks_chain(self, served_log, registry):
        log, vk_hash = served_log
        findings = audit_with(log, registry, vk_hash, 1, None)
        # the entry after the gap, at its position in the shortened log
        assert [(f.index, f.kind) for f in findings] == [(1, "chain")]

    def test_finding_str(self, served_log, registry):
        log, vk_hash = served_log
        findings = audit_with(log, registry, vk_hash, 1, None)
        assert str(findings[0]).startswith("entry 1: chain (")


def test_freivalds_key_depends_on_the_input(registry):
    # Freivalds challenges are derived from the operands, so each input
    # gets its own key: the second entry is not under the published one
    log = serve(AuditLog(scoring_model(), registry,
                         plan=LayoutChoices(linear="freivalds")), 2)
    findings = audit(log, registry, published_hash(log))
    assert [(f.index, f.kind) for f in findings] == [(1, "model")]
