"""Exact accounting tests for :class:`ProvingKeyCache` counters.

The invariant under test: every ``get_or_create`` increments **exactly
one** of ``hits`` / ``misses`` / ``rebuilds`` (so
``lookups == hits + misses + rebuilds`` and the hit rate is honest),
and ``clear()`` resets the counters along with the entries.
"""

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.halo2 import keygen
from repro.perf.pkcache import ProvingKeyCache, _entry_checksum, circuit_digest
from repro.resilience import events

from tests.halo2.circuits import mul_circuit, range_check_circuit

F = GOLDILOCKS


def _scheme():
    return scheme_by_name("kzg", F)


def _corrupt(cache: ProvingKeyCache, digest: str) -> None:
    """Tamper with a cached entry's stored checksum (simulated bit rot)."""
    pk, vk, _checksum = cache._entries[digest]
    cache._entries[digest] = (pk, vk, "corrupted")


def _assert_partition(cache: ProvingKeyCache) -> None:
    stats = cache.stats()
    assert stats["lookups"] == stats["hits"] + stats["misses"] \
        + stats["rebuilds"]
    if stats["lookups"]:
        assert stats["hit_rate"] == pytest.approx(
            stats["hits"] / stats["lookups"], abs=1e-4)
    else:
        assert stats["hit_rate"] == 0.0


class TestCounterPartition:
    def test_miss_then_hits_count_exactly(self):
        cs, asg = mul_circuit()
        cache = ProvingKeyCache()
        cache.get_or_create(cs, asg, _scheme())
        cache.get_or_create(cs, asg, _scheme())
        cache.get_or_create(cs, asg, _scheme())
        assert (cache.hits, cache.misses, cache.rebuilds) == (2, 1, 0)
        assert cache.stats()["lookups"] == 3
        assert cache.stats()["hit_rate"] == pytest.approx(2 / 3, abs=1e-4)
        _assert_partition(cache)

    def test_rebuild_counts_once_not_as_miss_too(self):
        # the original bug: a corruption rebuild bumped BOTH rebuilds and
        # misses, double-counting the lookup and skewing hit-rate math
        events.reset()
        cs, asg = mul_circuit()
        scheme = _scheme()
        cache = ProvingKeyCache()
        digest = circuit_digest(cs, asg, scheme.name)
        cache.get_or_create(cs, asg, scheme)          # miss
        _corrupt(cache, digest)
        pk, vk, skipped = cache.get_or_create(cs, asg, scheme)  # rebuild
        assert not skipped  # keygen re-ran
        assert (cache.hits, cache.misses, cache.rebuilds) == (0, 1, 1)
        assert cache.stats()["lookups"] == 2
        _assert_partition(cache)
        assert events.counts().get(
            'recovered{reason="pk_cache_rebuild"}') == 1
        # the rebuilt entry is intact: next lookup is a plain hit
        cache.get_or_create(cs, asg, scheme)
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 1, 1)

    def test_distinct_circuits_each_miss_once(self):
        cache = ProvingKeyCache()
        cs1, asg1 = mul_circuit()
        cs2, asg2 = range_check_circuit()
        cache.get_or_create(cs1, asg1, _scheme())
        cache.get_or_create(cs2, asg2, _scheme())
        cache.get_or_create(cs1, asg1, _scheme())
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 2, 0)
        _assert_partition(cache)


class TestClearResets:
    def test_clear_resets_entries_and_counters(self):
        cs, asg = mul_circuit()
        cache = ProvingKeyCache()
        cache.get_or_create(cs, asg, _scheme())
        cache.get_or_create(cs, asg, _scheme())
        assert cache.stats()["lookups"] == 2
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert (stats["hits"], stats["misses"], stats["rebuilds"]) \
            == (0, 0, 0)
        assert stats["lookups"] == 0 and stats["hit_rate"] == 0.0
        # post-clear traffic starts counting from zero: one miss, one hit
        cache.get_or_create(cs, asg, _scheme())
        cache.get_or_create(cs, asg, _scheme())
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 1, 0)
        _assert_partition(cache)


def test_entry_checksum_digest_is_pinned():
    # the digest is over vk.digest() and each fixed column's little-endian
    # scalars, however the implementation packs them: mul_circuit's pin
    # has held across every packing change (per-scalar updates, then one
    # serialize_scalars call per column, in vk.digest() too).
    # range_check_circuit's pin moved with the per-table lookup argument,
    # not with any packing: max_degree is in the vk digest preimage and
    # its only constraints above degree 2 were the old lookup helpers
    # (max_degree 3 -> 2; was c07133502b5f2df0a349b8e780387572).
    # Both pins moved once more with envelope v2: vk.digest() now hashes
    # the fixed round's Merkle root, the opening parameters and the
    # constraint list instead of the fixed polynomials (were
    # 363efbfec2f4ed2a6497ea2186e99a73 / 53f8b01d875545ed07a0fc9fee743a68).
    # And with ISSUE 19: a Goldilocks key holds read-only uint64 arrays
    # and the checksum hashes their 8-byte words in place, not 32-byte
    # padded copies -- 4x fewer bytes through blake2b on every cache hit
    # (were 1c5f58b3e57b7bd312e69c2f805be5a6 / d3d9857051e914c7ed83f84cd88bcc85).
    # range_check_circuit's pin moved with weighted LogUp: its lookup's
    # constraint is now named "lookup:range/fraction" and proves
    # h * (alpha + f) - 1 (was 6db239bd98c17b171b98589b92a81da6).
    # Both pins moved once more when the hit's re-hash went onto the
    # kernel's eight-lane blake2b: each fixed column is digested on its own
    # (blake2b-256, no person, equal to hashlib's) and the outer blake2b-128
    # takes that 32-byte digest where it took the column's raw words, so a
    # hit streams the columns through blake2b ~6x faster with the same
    # coverage (were 0911fc66571bc79979910d03044099a2 /
    # 0ad7f08f90528ad758693476ba03ba28).
    for builder, digest in (
        (mul_circuit, "a502e1ca1584ebe3b3e37aad055ac51b"),
        (range_check_circuit, "d6dae553ef258238a641d23caea27e3a"),
    ):
        cs, asg = builder()
        pk, vk = keygen(cs, asg, _scheme())
        assert _entry_checksum(pk, vk) == digest
