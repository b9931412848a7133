"""The verifying-key registry: content-addressed, checksummed, typed.

The store's contract mirrors the pk cache's idiom: atomic writes with
bounded retries on ``OSError``, reads that re-verify integrity, and
corruption that *evicts* (counted as a recovery event) and surfaces a
typed error — never served corrupt.
"""

import multiprocessing as mp
import os
import pickle

import numpy as np
import pytest

from repro.model import get_model
from repro.registry import INDEX_SCHEMA, VKRegistry, store
from repro.resilience import events
from repro.resilience.errors import (
    RegistryError,
    UnknownVerifyingKeyError,
)
from repro.runtime import prove_model

from tests.flaky_disk import fail_replace

rng = np.random.default_rng(41)


@pytest.fixture(scope="module")
def proven():
    spec = get_model("dlrm", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                       scale_bits=5)


@pytest.fixture()
def registry(tmp_path):
    return VKRegistry(str(tmp_path / "reg"))


@pytest.fixture(autouse=True)
def clean_state():
    events.reset()
    yield
    events.reset()


def _publish(registry, proven):
    env = proven.envelope()
    return registry.publish(proven.vk, env.model, env.config_digest)


class TestPublish:
    def test_publish_then_get_round_trips(self, registry, proven):
        entry, created = _publish(registry, proven)
        assert created
        assert entry.vk_hash == proven.vk.digest().hex()
        assert entry.scheme == proven.vk.scheme_name
        assert os.path.exists(os.path.join(registry.root, entry.file))
        vk = registry.get(entry.vk_hash)
        assert vk.digest() == proven.vk.digest()

    def test_republish_is_idempotent(self, registry, proven):
        first, created = _publish(registry, proven)
        again, recreated = _publish(registry, proven)
        assert created and not recreated
        assert again == first

    def test_index_carries_schema(self, registry, proven):
        import json

        _publish(registry, proven)
        with open(registry.index_path) as fh:
            doc = json.load(fh)
        assert doc["schema"] == INDEX_SCHEMA

    def test_disk_write_fault_is_retried(self, registry, proven,
                                         monkeypatch):
        failed = fail_replace(monkeypatch, 1)
        entry, created = _publish(registry, proven)
        assert created
        assert len(failed) == 1
        assert any("retries" in key for key, count
                   in events.counts().items() if count)
        assert registry.get(entry.vk_hash).digest() == proven.vk.digest()


class TestIntegrity:
    def test_unknown_hash_is_typed_and_a_key_error(self, registry):
        with pytest.raises(UnknownVerifyingKeyError) as info:
            registry.get("ab" * 32)
        assert isinstance(info.value, KeyError)
        with pytest.raises(UnknownVerifyingKeyError):
            registry.entry("ab" * 32)

    def test_get_unpickles_the_bytes_it_checksummed(self, registry, proven,
                                                    monkeypatch):
        # one read of the key file per get: a second read could return
        # bytes other than the ones the checksum passed
        entry, _ = _publish(registry, proven)
        path = os.path.join(registry.root, entry.file)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(store, "open", counting_open, raising=False)
        assert registry.get(entry.vk_hash).digest() == proven.vk.digest()
        assert opened.count(path) == 1

    def test_resolve_reads_the_index_and_the_key_once(self, registry,
                                                      proven, monkeypatch):
        # the verifier's one lookup: the key and the entry it was
        # published under, from one read of the index
        entry, _ = _publish(registry, proven)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(store, "open", counting_open, raising=False)
        vk, resolved = registry.resolve(entry.vk_hash)
        assert vk.digest() == proven.vk.digest()
        assert resolved == entry
        assert sorted(opened) == sorted(
            [registry.index_path, os.path.join(registry.root, entry.file)])

    def test_corrupt_artifact_evicted_on_get(self, registry, proven):
        entry, _ = _publish(registry, proven)
        path = os.path.join(registry.root, entry.file)
        with open(path, "r+b") as fh:
            fh.seek(100)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(RegistryError, match="re-publish"):
            registry.get(entry.vk_hash)
        # evicted: the entry is gone from the index, counted as recovery
        with pytest.raises(UnknownVerifyingKeyError):
            registry.entry(entry.vk_hash)
        recovered = [k for k, v in events.counts().items()
                     if "vk_registry_evict" in k and v]
        assert recovered

    def test_unpicklable_artifact_evicted(self, registry, proven):
        # checksum the *stored* garbage so the checksum passes and the
        # unpickle layer is what catches it
        import hashlib
        import json

        entry, _ = _publish(registry, proven)
        path = os.path.join(registry.root, entry.file)
        with open(path, "wb") as fh:
            fh.write(b"\x93not a pickle")
        with open(registry.index_path) as fh:
            doc = json.load(fh)
        doc["entries"][entry.vk_hash]["checksum"] = hashlib.blake2b(
            b"\x93not a pickle", digest_size=16).hexdigest()
        with open(registry.index_path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(RegistryError, match="unpicklable"):
            registry.get(entry.vk_hash)

    def test_wrong_key_under_hash_evicted(self, registry, proven):
        # a valid pickle of the wrong object: content addressing catches
        # the swap via vk.digest(), not just the file checksum
        import hashlib
        import json

        entry, _ = _publish(registry, proven)
        path = os.path.join(registry.root, entry.file)
        impostor = pickle.dumps(proven.instance)
        with open(path, "wb") as fh:
            fh.write(impostor)
        with open(registry.index_path) as fh:
            doc = json.load(fh)
        doc["entries"][entry.vk_hash]["checksum"] = hashlib.blake2b(
            impostor, digest_size=16).hexdigest()
        with open(registry.index_path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(RegistryError):
            registry.get(entry.vk_hash)

    def test_publish_rebuilds_corrupt_entry(self, registry, proven):
        entry, _ = _publish(registry, proven)
        os.unlink(os.path.join(registry.root, entry.file))
        rebuilt, created = _publish(registry, proven)
        assert created  # rebuilt from the key in hand
        assert rebuilt.vk_hash == entry.vk_hash
        assert registry.get(entry.vk_hash).digest() == proven.vk.digest()
        rebuilds = [k for k, v in events.counts().items()
                    if "vk_registry_rebuild" in k and v]
        assert rebuilds


class TestCheck:
    def test_clean_registry_checks_ok(self, registry, proven):
        _publish(registry, proven)
        report = registry.check()
        assert report["ok"] and report["intact"] == report["checked"] == 1
        assert report["schema"] == "zkml-registry-check/v1"

    def test_corruption_reported_with_cause(self, registry, proven):
        entry, _ = _publish(registry, proven)
        with open(os.path.join(registry.root, entry.file), "ab") as fh:
            fh.write(b"tail")
        report = registry.check()
        assert not report["ok"]
        assert report["corrupt"][0]["cause"] == "checksum_mismatch"
        # check without --repair must not evict
        assert registry.entry(entry.vk_hash).vk_hash == entry.vk_hash

    def test_missing_artifact_reported_with_cause(self, registry, proven):
        entry, _ = _publish(registry, proven)
        os.unlink(os.path.join(registry.root, entry.file))
        report = registry.check()
        assert not report["ok"]
        assert report["corrupt"][0]["cause"] == "missing_artifact"
        assert registry.entry(entry.vk_hash).vk_hash == entry.vk_hash

    def test_repair_evicts_corrupt_entries(self, registry, proven):
        entry, _ = _publish(registry, proven)
        os.unlink(os.path.join(registry.root, entry.file))
        report = registry.check(repair=True)
        assert report["repaired"]
        assert registry.list_entries() == []


class TestStaleEviction:
    """A reader judges an entry corrupt, then a publish rebuilds it
    before the reader takes the index lock: the eviction must not undo
    the rebuild (a serving worker would not put the key back)."""

    def test_a_rebuilt_artifact_is_not_evicted(self, registry, proven):
        entry, _ = _publish(registry, proven)
        os.unlink(os.path.join(registry.root, entry.file))
        judged = registry.entry(entry.vk_hash).as_dict()
        _publish(registry, proven)  # rebuilds the file in place
        registry._evict(entry.vk_hash, judged, "missing_artifact")
        assert registry.get(entry.vk_hash).digest() == proven.vk.digest()
        assert not [k for k, v in events.counts().items()
                    if "vk_registry_evict" in k and v]

    def test_a_replaced_record_is_not_evicted(self, registry, proven):
        entry, _ = _publish(registry, proven)
        judged = dict(entry.as_dict(), checksum="0" * 32)
        registry._evict(entry.vk_hash, judged, "checksum_mismatch")
        assert registry.get(entry.vk_hash).digest() == proven.vk.digest()

    def test_the_judged_record_is_evicted(self, registry, proven):
        entry, _ = _publish(registry, proven)
        os.unlink(os.path.join(registry.root, entry.file))
        registry._evict(entry.vk_hash, entry.as_dict(), "missing_artifact")
        assert registry.list_entries() == []


class _Key:
    """A stand-in verifying key: publish reads only its digest and
    scheme, and pickles it."""

    scheme_name = "kzg"

    def __init__(self, index):
        self._digest = bytes([index]) * 32

    def digest(self):
        return self._digest


def _publish_at_barrier(root, index, barrier):
    barrier.wait()
    VKRegistry(root).publish(_Key(index), "m%d" % index, bytes(16))


class TestConcurrentPublish:
    @pytest.mark.parametrize("trial", range(3))
    def test_processes_publishing_distinct_keys_lose_no_entry(
            self, tmp_path, trial):
        """Four processes released at once each publish their own key:
        the index lock keeps every read-modify-write of ``index.json``
        whole, so all four entries survive (without it the last writer's
        index drops the others')."""
        ctx = mp.get_context("spawn")
        root = str(tmp_path / "reg")
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_publish_at_barrier,
                             args=(root, index, barrier))
                 for index in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        entries = VKRegistry(root).list_entries()
        assert [e.model for e in entries] == ["m0", "m1", "m2", "m3"]
        assert VKRegistry(root).check()["ok"]
