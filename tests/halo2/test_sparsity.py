"""Sparsity-aware synthesis must be a pure optimization: same bytes out.

All-zero advice columns are common in padded model circuits (unused
helper slots, zero bias rows); the prover skips their interpolation.  The
only observable difference allowed is ``STATS.sparsity_skips`` — proof
bytes must be identical to a proof that interpolates every column.
"""

import pickle

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.halo2 import create_proof, keygen, prover
from repro.obs.stats import STATS

from tests.halo2.circuits import mul_circuit

F = GOLDILOCKS


def _zero_heavy_circuit():
    """A mul circuit whose a and c advice columns are identically zero."""
    return mul_circuit(rows=[(0, 5), (0, 9)])


def test_all_zero_columns_are_detected():
    cs, asg = _zero_heavy_circuit()
    scheme = scheme_by_name("kzg", F)
    pk, _ = keygen(cs, asg, scheme)
    before = STATS.snapshot()
    polys, _ = prover._interpolate_commit_rows(pk.vk.domain, scheme,
                                               asg.advice)
    # columns: 0=a (zero), 1=b (nonzero), 2=c (zero products): the advice
    # round skips exactly the two zero rows of the grid
    assert STATS.delta(before)["sparsity_skips"] == 2
    assert not polys[0].any() and polys[1].any() and not polys[2].any()


def test_sparsity_skips_are_counted():
    cs, asg = _zero_heavy_circuit()
    scheme = scheme_by_name("kzg", F)
    pk, _ = keygen(cs, asg, scheme)
    before = STATS.snapshot()
    create_proof(pk, asg, scheme)
    assert STATS.delta(before)["sparsity_skips"] > 0


def _interpolate_every_row(domain, scheme, rows):
    """``_interpolate_commit_rows`` without the all-zero skip."""
    polys = domain.lagrange_to_coeff_rows(rows)
    return polys, scheme.commit_round(domain, domain.lde(polys))


def test_sparse_proof_matches_a_proof_that_skips_nothing(monkeypatch):
    cs, asg = _zero_heavy_circuit()
    scheme = scheme_by_name("kzg", F)
    pk, _ = keygen(cs, asg, scheme)
    proof_fast = create_proof(pk, asg, scheme)

    monkeypatch.setattr(prover, "_interpolate_commit_rows",
                        _interpolate_every_row)
    before = STATS.snapshot()
    proof_ref = create_proof(pk, asg, scheme)
    assert STATS.delta(before)["sparsity_skips"] == 0

    assert pickle.dumps(proof_fast) == pickle.dumps(proof_ref)
