"""Disk-backed proving-key cache: concurrency and corruption safety.

The properties the serve cluster depends on:

* two worker processes racing the same circuit perform at most one
  keygen (the digest's advisory file lock covers the whole
  load-miss -> keygen -> store window);
* a corrupted artifact is evicted and rebuilt, never served;
* a reader concurrent with a writer only ever observes intact
  artifacts (tmp-file + ``os.replace`` atomicity);
* a persistent write failure raises after bounded retries and leaves no
  tmp litter behind.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.perf import pkcache
from repro.perf.pkcache import (
    DISK_MAGIC,
    DiskPKCache,
    ProvingKeyCache,
    circuit_digest,
)
from repro.resilience import events
from repro.resilience.errors import CacheCorruptionError

from tests.flaky_disk import fail_replace
from tests.halo2.circuits import mul_circuit

F = GOLDILOCKS


@pytest.fixture
def scheme():
    return scheme_by_name("kzg", F)


@pytest.fixture
def circuit():
    return mul_circuit()


def _keys(circuit, scheme, tmp_path):
    """Generate (digest, pk, vk) once via a throwaway cache."""
    cs, asg = circuit
    cache = ProvingKeyCache(disk=DiskPKCache(str(tmp_path / "seed")))
    pk, vk, _ = cache.get_or_create(cs, asg, scheme)
    return circuit_digest(cs, asg, scheme.name), pk, vk


def _race_child(barrier, queue, root, circuit, scheme_name):
    """Fork target: one synchronized lookup against the shared disk dir."""
    cs, asg = circuit
    sch = scheme_by_name(scheme_name, F)
    cache = ProvingKeyCache(disk=DiskPKCache(root))
    barrier.wait(timeout=30)
    _pk, _vk, keygen_skipped = cache.get_or_create(cs, asg, sch)
    queue.put((os.getpid(), keygen_skipped, cache.disk.stores))


class TestKeygenRace:
    def test_two_processes_same_digest_at_most_one_keygen(
            self, tmp_path, circuit):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        root = str(tmp_path / "shared")
        procs = [ctx.Process(target=_race_child,
                             args=(barrier, queue, root, circuit, "kzg"))
                 for _ in range(2)]
        for p in procs:
            p.start()
        reports = [queue.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        # the flock serializes the keygen window: exactly one process ran
        # keygen (and stored), the loser got a disk hit instead
        stores = sum(r[2] for r in reports)
        assert stores == 1
        keygen_runs = sum(1 for r in reports if not r[1])
        assert keygen_runs == 1
        cs, asg = circuit
        digest = circuit_digest(cs, asg, "kzg")
        assert os.path.exists(DiskPKCache(root).path(digest))


class TestCorruptionEviction:
    @pytest.mark.parametrize("mangle", [
        pytest.param(lambda blob: b"not-a-cache-file" + blob[16:],
                     id="bad_magic"),
        pytest.param(lambda blob: blob[:len(DISK_MAGIC) + 4],
                     id="truncated"),
        pytest.param(lambda blob: blob[:-8] + bytes(8),
                     id="flipped_tail"),
        pytest.param(
            lambda blob: blob[:len(DISK_MAGIC)]
            + blob[len(DISK_MAGIC):len(DISK_MAGIC) + 16]
            + b"\x80\x04garbage.",
            id="unpicklable"),
    ])
    def test_corrupt_artifact_evicted_never_served(
            self, tmp_path, circuit, scheme, mangle):
        events.reset()
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        disk.store(digest, pk, vk)
        path = disk.path(digest)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(mangle(blob))
        assert disk.load(digest) is None
        assert disk.evictions == 1
        assert not os.path.exists(path)  # evicted, not left to rot
        assert any(k.startswith('recovered{reason="pk_disk_evict"')
                   or 'pk_disk_evict' in k for k in events.counts())

    def test_wrong_digest_inside_is_corruption(self, tmp_path, circuit,
                                               scheme):
        # an artifact renamed to another digest's path must not be served
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        disk.store(digest, pk, vk)
        other = "0" * len(digest)
        os.rename(disk.path(digest), disk.path(other))
        assert disk.load(other) is None
        assert disk.evictions == 1

    def test_evicted_entry_is_rebuilt_on_next_lookup(self, tmp_path,
                                                     circuit, scheme):
        cs, asg = circuit
        disk = DiskPKCache(str(tmp_path / "disk"))
        cache = ProvingKeyCache(disk=disk)
        cache.get_or_create(cs, asg, scheme)
        digest = circuit_digest(cs, asg, scheme.name)
        with open(disk.path(digest), "r+b") as fh:
            fh.write(b"\x00" * 8)  # stomp the magic
        fresh = ProvingKeyCache(disk=disk)  # cold memory tier
        pk, vk, skipped = fresh.get_or_create(cs, asg, scheme)
        assert not skipped  # keygen re-ran; corrupt keys never served
        assert disk.evictions == 1
        # and the store repaired the artifact for the next reader
        assert disk.load(digest) is not None

    def test_v1_artifact_is_evicted_and_rebuilt_never_served(
            self, tmp_path, circuit, scheme, monkeypatch):
        # circuit_digest hashes what keygen consumes, so a directory
        # written before the per-table lookup layout answers the same
        # digest with the old constraint list: the format version in the
        # magic is what keeps such keys away from the new prover
        self.check_old_artifact(b"zkml-pk-cache/v1\n", tmp_path, circuit,
                                scheme, monkeypatch)

    def test_v3_artifact_is_evicted_and_rewritten(
            self, tmp_path, circuit, scheme, monkeypatch):
        # a v3 key pickles fixed_evals as int lists under the repr()-based
        # circuit digest; from v4 on the key holds read-only uint64 arrays
        # under the packed-bytes digest
        self.check_old_artifact(b"zkml-pk-cache/v3\n", tmp_path, circuit,
                                scheme, monkeypatch)

    def test_v4_artifact_is_a_miss_then_a_rebuild(
            self, tmp_path, circuit, scheme, monkeypatch):
        # a v4 key has no compiled constraint tapes, which the prover
        # runs: it is never loaded, only rebuilt and rewritten as v7
        assert DISK_MAGIC == b"zkml-pk-cache/v7\n"
        self.check_old_artifact(b"zkml-pk-cache/v4\n", tmp_path, circuit,
                                scheme, monkeypatch)

    def test_v5_artifact_is_a_miss_then_a_rebuild(
            self, tmp_path, circuit, scheme, monkeypatch):
        # a v5 key pickles its fixed round's tree as lists of digests,
        # not the node array the tree is now: never loaded, only rebuilt
        self.check_old_artifact(b"zkml-pk-cache/v5\n", tmp_path, circuit,
                                scheme, monkeypatch)

    def test_v6_artifact_is_a_miss_then_a_rebuild(
            self, tmp_path, circuit, scheme, monkeypatch):
        # a v6 key's domain pickles its NTT twiddles as limb tables of a
        # class the kernel no longer has: never loaded, only rebuilt
        self.check_old_artifact(b"zkml-pk-cache/v6\n", tmp_path, circuit,
                                scheme, monkeypatch)

    def check_old_artifact(self, old_magic, tmp_path, circuit, scheme,
                           monkeypatch):
        """An intact artifact under an older magic: evicted, rebuilt by
        exactly one keygen, rewritten under the current magic."""
        from repro.perf import pkcache

        events.reset()
        cs, asg = circuit
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        disk.store(digest, pk, vk)
        with open(disk.path(digest), "rb") as fh:
            blob = fh.read()
        assert len(old_magic) == len(DISK_MAGIC) and old_magic != DISK_MAGIC
        with open(disk.path(digest), "wb") as fh:
            fh.write(old_magic + blob[len(DISK_MAGIC):])  # intact but old

        keygens = []
        real_keygen = pkcache.keygen

        def counting_keygen(*args):
            keygens.append(1)
            return real_keygen(*args)

        monkeypatch.setattr(pkcache, "keygen", counting_keygen)
        fresh = ProvingKeyCache(disk=disk)  # cold memory tier
        _pk, _vk, skipped = fresh.get_or_create(cs, asg, scheme)
        assert not skipped and len(keygens) == 1
        assert disk.evictions == 1 and disk.load_hits == 0
        assert any("pk_disk_evict" in k for k in events.counts())
        with open(disk.path(digest), "rb") as fh:
            assert fh.read(len(DISK_MAGIC)) == DISK_MAGIC  # repaired
        # the repaired artifact serves the next cold reader without keygen
        _pk, _vk, skipped = ProvingKeyCache(disk=disk).get_or_create(
            cs, asg, scheme)
        assert skipped and len(keygens) == 1


class TestAtomicity:
    def test_reader_never_observes_partial_write(self, tmp_path, circuit,
                                                 scheme):
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        root = str(tmp_path / "disk")
        ctx = multiprocessing.get_context("fork")

        def writer():
            d = DiskPKCache(root)
            for _ in range(30):
                d.store(digest, pk, vk)

        proc = ctx.Process(target=writer)
        proc.start()
        reader = DiskPKCache(root)
        observed = 0
        while proc.is_alive():
            if reader.load(digest) is not None:
                observed += 1
        proc.join(timeout=30)
        assert proc.exitcode == 0
        # every load during the write storm was either a clean miss
        # (file not yet created) or a fully-valid artifact — os.replace
        # never exposes a half-written blob
        assert reader.evictions == 0
        assert observed > 0 or reader.load(digest) is not None

    def test_tmp_files_are_per_process(self, tmp_path, circuit, scheme):
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        disk.store(digest, pk, vk)
        pk_dir = os.path.dirname(disk.path(digest))
        leftovers = [n for n in os.listdir(pk_dir) if ".tmp." in n]
        assert leftovers == []


class TestWriteFailure:
    def test_persistent_write_failure_raises_and_cleans_tmp(
            self, tmp_path, circuit, scheme, monkeypatch):
        events.reset()
        monkeypatch.setattr(pkcache, "WRITE_BACKOFF_SECONDS", 0.001)
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        failed = fail_replace(monkeypatch, 3)
        with pytest.raises(CacheCorruptionError):
            disk.store(digest, pk, vk)
        assert len(failed) == 3
        pk_dir = os.path.join(disk.root, "pk")
        assert [n for n in os.listdir(pk_dir) if ".tmp." in n] == []
        assert not os.path.exists(disk.path(digest))
        assert disk.stores == 0

    def test_transient_write_failure_retries_through(
            self, tmp_path, circuit, scheme, monkeypatch):
        events.reset()
        monkeypatch.setattr(pkcache, "WRITE_BACKOFF_SECONDS", 0.001)
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        failed = fail_replace(monkeypatch, 2)  # 2 failures, 3 attempts
        disk.store(digest, pk, vk)
        assert len(failed) == 2
        assert events.counts()["retries"] == 2
        assert disk.stores == 1
        assert disk.load(digest) is not None


class TestMemoryDiskLayering:
    def test_attach_disk_by_path_and_disk_hit_accounting(
            self, tmp_path, circuit, scheme):
        cs, asg = circuit
        root = str(tmp_path / "disk")
        warm = ProvingKeyCache()
        warm.attach_disk(root)  # a path string creates the DiskPKCache
        assert isinstance(warm.disk, DiskPKCache)
        warm.get_or_create(cs, asg, scheme)
        assert warm.disk.stores == 1

        # a second process-alike (cold memory, same dir) skips keygen
        cold = ProvingKeyCache()
        cold.attach_disk(root)
        _pk, _vk, skipped = cold.get_or_create(cs, asg, scheme)
        assert skipped
        stats = cold.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 1  # memory tier still missed
        assert stats["disk"]["load_hits"] == 1

    def test_roundtrip_payload_is_the_same_object_graph(
            self, tmp_path, circuit, scheme):
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        disk.store(digest, pk, vk)
        loaded_pk, loaded_vk = disk.load(digest)
        assert pickle.dumps(loaded_pk) == pickle.dumps(pk)
        assert pickle.dumps(loaded_vk) == pickle.dumps(vk)

    def test_a_disk_hit_unpickles_the_payload_once(
            self, tmp_path, circuit, scheme, monkeypatch):
        # the payload is the whole proving key: validating it must not
        # cost a second unpickle
        digest, pk, vk = _keys(circuit, scheme, tmp_path)
        disk = DiskPKCache(str(tmp_path / "disk"))
        disk.store(digest, pk, vk)
        unpickled = []
        loads = pickle.loads

        def counting_loads(data, *args, **kwargs):
            unpickled.append(len(data))
            return loads(data, *args, **kwargs)

        monkeypatch.setattr(pkcache.pickle, "loads", counting_loads)
        assert disk.load(digest) is not None
        assert len(unpickled) == 1
