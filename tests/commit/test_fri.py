"""FRI on its own: low-degree functions pass, everything else fails.

The prover side here is the real one (:class:`FriProver`); layer 0 is
handed to the verifier directly, the way the batched opening hands it
the DEEP quotient it recomputed from the opened rows.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import fri
from repro.commit.transcript import Transcript
from repro.field import GOLDILOCKS, EvaluationDomain

F = GOLDILOCKS


def run_fri(k, coeffs, seed=0, tamper=None):
    """Prove and check the function with the extended-coset values of
    ``coeffs``; returns the per-query verdicts."""
    domain = EvaluationDomain(F, k)
    size = domain.extended_n
    values = domain.coeff_to_extended(coeffs)

    def transcript():
        t = Transcript(F)
        t.append_scalar(b"seed", seed)
        return t

    t = transcript()
    prover = fri.FriProver(domain, domain.backend.from_ints(values), t)
    positions = fri.draw_positions(domain, t)
    roots, final_poly = prover.roots, list(prover.final_poly)
    openings = prover.open(positions)
    if tamper is not None:
        roots, final_poly, openings = tamper(roots, final_poly, openings)

    t = transcript()
    verifier = fri.FriVerifier(domain, roots, final_poly, t)
    replayed = fri.draw_positions(domain, t)
    assert replayed == positions or tamper is not None
    half = size // 2
    return [verifier.check(s, (values[s], values[s + half]), opening)
            for s, opening in zip(replayed, openings)]


@given(k=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_accepts_every_polynomial_below_the_degree_bound(k, seed):
    rng = random.Random(seed)
    coeffs = [rng.randrange(F.p) for _ in range(1 << k)]
    assert all(run_fri(k, coeffs, seed))


@pytest.mark.parametrize("k", [3, 6, 9])
def test_rejects_degree_n_and_above(k):
    # deterministic seeds; a word this far from the code (a random
    # polynomial of degree up to N - 1, or exactly n) fails each query
    # with probability >= 1 - rate, so all 48 passing has probability
    # <= 2^-48: any acceptance here is a bug, not bad luck
    n = 1 << k
    for seed in range(5):
        rng = random.Random(seed)
        full = [rng.randrange(F.p) for _ in range(2 * n)]
        verdicts = run_fri(k, full, seed)
        assert not all(verdicts)
        assert sum(verdicts) <= fri.FRI_QUERIES // 2
        just_over = [0] * n + [1]
        assert not all(run_fri(k, just_over, seed))


class TestTamper:
    K = 8  # three folds: two committed layers, then the final polynomial

    def coeffs(self):
        rng = random.Random(1)
        return [rng.randrange(F.p) for _ in range(1 << self.K)]

    def rejected(self, tamper):
        return not all(run_fri(self.K, self.coeffs(), tamper=tamper))

    def test_control(self):
        assert not self.rejected(lambda r, f, o: (r, f, o))

    def test_final_coefficient(self):
        def tamper(roots, final_poly, openings):
            final_poly[5] = F.add(final_poly[5], 1)
            return roots, final_poly, openings
        assert self.rejected(tamper)

    def test_layer_root(self):
        def tamper(roots, final_poly, openings):
            roots = [bytes([roots[0][0] ^ 1]) + roots[0][1:]] + roots[1:]
            return roots, final_poly, openings
        assert self.rejected(tamper)

    @pytest.mark.parametrize("side", [0, 1])
    def test_fold_sibling(self, side):
        def tamper(roots, final_poly, openings):
            fold = openings[0][1]
            pair = list(fold.pair)
            pair[side] = F.add(pair[side], 1)
            openings[0][1] = fri.FoldOpening(pair=tuple(pair), path=fold.path)
            return roots, final_poly, openings
        assert self.rejected(tamper)

    def test_path_node_at_every_depth(self):
        for layer in range(2):
            depth = len(run_fri_paths(self.K)[layer])
            for level in range(depth):
                def tamper(roots, final_poly, openings, layer=layer,
                           level=level):
                    fold = openings[3][layer]
                    path = list(fold.path)
                    path[level] = bytes([path[level][0] ^ 0x80]) + path[level][1:]
                    openings[3][layer] = fri.FoldOpening(pair=fold.pair,
                                                         path=tuple(path))
                    return roots, final_poly, openings
                assert self.rejected(tamper)


def run_fri_paths(k):
    """Path lengths of the committed layers at ``k`` (one per layer)."""
    domain = EvaluationDomain(F, k)
    return [[None] * (domain.extended_k - 1 - i)
            for i in range(1, fri.num_folds(k))]


def test_shape_functions():
    assert fri.num_folds(12) == 7 and fri.final_len(12) == 32
    assert fri.num_folds(5) == 0 and fri.final_len(5) == 32
    assert fri.num_folds(3) == 0 and fri.final_len(3) == 8
    domain = EvaluationDomain(F, 12)
    assert [len(p) for p in run_fri_paths(12)] == [
        domain.extended_k - 1 - i for i in range(1, 7)]


def test_soundness_bits_are_the_documented_numbers():
    # docs/verification.md quotes these for a k=12 proof over 128 columns
    bits = fri.soundness_bits(k=12, extension=2, columns=128, field_bits=64)
    assert bits["query_conjectured"] == 48
    assert bits["query_proven"] == 24
    assert bits["field_cap"] == 64 - 13 - 7 == 44
    assert bits["achieved_conjectured"] == 44
    assert bits["achieved_proven"] == 24
    # the query count meets the field cap, it does not exceed it by much:
    # more queries would buy nothing on a 64-bit field
    assert math.isclose(fri.FRI_QUERIES * math.log2(2), 48)
    assert bits["query_conjectured"] - bits["field_cap"] <= 8
