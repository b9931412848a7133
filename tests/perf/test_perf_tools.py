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


def test_pk_cache_digest_sees_one_cell_one_selector_bit_one_copy():
    # the grids are hashed as packed bytes; each single-entry change to
    # what keygen consumes must still move the digest
    from repro.halo2.column import KINDS, Column, ColumnType

    def digest(edit):
        cs, asg = mul_circuit()
        cs_rc, asg_rc = range_check_circuit()
        edit(asg, asg_rc)
        return (circuit_digest(cs, asg, "kzg"),
                circuit_digest(cs_rc, asg_rc, "kzg"))

    base = digest(lambda asg, asg_rc: None)
    assert base == digest(lambda asg, asg_rc: None)
    c, inst = Column(ColumnType.ADVICE, 2), Column(ColumnType.INSTANCE, 0)
    edits = {
        "fixed cell": lambda asg, asg_rc: asg_rc.assign_fixed(
            Column(ColumnType.FIXED, 0), 7, 8),
        "selector bit": lambda asg, asg_rc: asg.enable_selector(
            Column(ColumnType.SELECTOR, 0), 5),
        "copy added": lambda asg, asg_rc: asg.copy(c, 0, inst, 0),
        # the copy list rows are (kind, index, row) of each side
        "copy row": lambda asg, asg_rc: asg.copies.__setitem__(
            (0, 2), 1),
        "copy column": lambda asg, asg_rc: asg.copies.__setitem__(
            (0, slice(0, 2)), (KINDS.index(inst.kind), inst.index)),
    }
    seen = {base}
    for name, edit in edits.items():
        moved = digest(edit)
        assert moved != base, name
        assert moved not in seen, name
        seen.add(moved)


def test_goldilocks_key_holds_readonly_arrays_the_hit_path_never_converts():
    import numpy as np

    from repro.halo2 import keygen
    from repro.perf.pkcache import _entry_checksum

    cs, asg = range_check_circuit()
    pk, vk = keygen(cs, asg, scheme_by_name("kzg", F))
    for values in pk.fixed_evals.values():
        assert values.dtype == np.uint64 and not values.flags.writeable
        assert vk.domain.backend.from_ints(values) is values  # prover: no copy
    # the checksum reads the arrays in place: same value from a key whose
    # columns went through a list round trip, no list anywhere on the way
    again, _ = keygen(cs, asg, scheme_by_name("kzg", F))
    assert _entry_checksum(again, vk) == _entry_checksum(pk, vk)
    col = next(iter(pk.fixed_evals))
    stomped = pk.fixed_evals[col].copy()
    stomped[3] ^= np.uint64(1)
    again.fixed_evals[col] = stomped
    assert _entry_checksum(again, vk) != _entry_checksum(pk, vk)


def test_pk_cache_lru_eviction():
    scheme = scheme_by_name("kzg", F)
    cache = ProvingKeyCache(maxsize=1)
    cs1, asg1 = mul_circuit()
    cs2, asg2 = range_check_circuit()
    cache.get_or_create(cs1, asg1, scheme)
    cache.get_or_create(cs2, asg2, scheme)
    _, _, hit = cache.get_or_create(cs1, asg1, scheme)
    assert not hit  # evicted by the range circuit
