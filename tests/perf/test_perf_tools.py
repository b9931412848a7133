"""Unit tests for the perf substrate: timer, pk cache."""

import pickle

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.perf import (
    NULL_TIMER,
    PhaseTimer,
    ProvingKeyCache,
    circuit_digest,
)

from tests.halo2.circuits import mul_circuit, range_check_circuit

F = GOLDILOCKS


def test_phase_timer_accumulates():
    timer = PhaseTimer()
    with timer.phase("a"):
        pass
    with timer.phase("a"):
        pass
    with timer.phase("b"):
        pass
    assert set(timer.seconds) == {"a", "b"}
    assert timer.total == pytest.approx(sum(timer.seconds.values()))
    assert "a" in timer.breakdown()


def test_null_timer_is_inert():
    with NULL_TIMER.phase("anything"):
        pass
    assert NULL_TIMER.total == 0.0


def test_pk_cache_hits_on_same_circuit():
    cs, asg = mul_circuit()
    scheme = scheme_by_name("kzg", F)
    cache = ProvingKeyCache()
    pk1, vk1, hit1 = cache.get_or_create(cs, asg, scheme)
    pk2, vk2, hit2 = cache.get_or_create(cs, asg, scheme)
    assert (hit1, hit2) == (False, True)
    assert pk1 is pk2 and vk1 is vk2
    assert cache.hits == 1 and cache.misses == 1


def test_pk_cache_digest_ignores_witness():
    cs, asg1 = mul_circuit(rows=[(2, 3)])
    _, asg2 = mul_circuit(rows=[(5, 6)])
    d1 = circuit_digest(cs, asg1, "kzg")
    d2 = circuit_digest(cs, asg2, "kzg")
    assert d1 == d2  # advice/instance differ, keygen inputs do not


def test_pk_cache_digest_separates_circuits_and_schemes():
    cs1, asg1 = mul_circuit()
    cs2, asg2 = range_check_circuit()
    assert circuit_digest(cs1, asg1, "kzg") != circuit_digest(cs2, asg2, "kzg")
    assert circuit_digest(cs1, asg1, "kzg") != circuit_digest(cs1, asg1, "ipa")


def test_pk_cache_lru_eviction():
    scheme = scheme_by_name("kzg", F)
    cache = ProvingKeyCache(maxsize=1)
    cs1, asg1 = mul_circuit()
    cs2, asg2 = range_check_circuit()
    cache.get_or_create(cs1, asg1, scheme)
    cache.get_or_create(cs2, asg2, scheme)
    _, _, hit = cache.get_or_create(cs1, asg1, scheme)
    assert not hit  # evicted by the range circuit
