"""Tests for the commitment scheme and its KZG / IPA cost profiles."""

import random

import pytest

from repro.commit import scheme_by_name
from repro.commit.ipa import IPAScheme
from repro.commit.kzg import KZGScheme, KZGSetup
from repro.commit.scheme import Commitment, draw_opening_point
from repro.commit.transcript import Transcript
from repro.field import GOLDILOCKS, EvaluationDomain
from repro.halo2 import create_proof, keygen
from repro.halo2.verifier import verify_proof_strict
from repro.obs.stats import STATS

from tests.halo2.circuits import mul_circuit
from tests.reference import poly_eval
from tests.verdict import assert_rejected

F = GOLDILOCKS


@pytest.fixture(params=["kzg", "ipa"])
def scheme(request):
    return scheme_by_name(request.param, F)


def _committed(scheme, coeffs):
    """A one-column round over ``coeffs`` (length a power of two)."""
    domain = EvaluationDomain(F, len(coeffs).bit_length() - 1)
    poly = domain.backend.from_ints(coeffs)
    return domain, scheme.commit_round(domain, domain.lde(poly[None, :]))


def _open(scheme, domain, committed, coeffs, claimed=None):
    """Open the round's one column at a transcript point; returns what a
    verifier needs.  ``claimed`` overrides the honest evaluation."""
    transcript = Transcript(F)
    transcript.append_commitment(b"round", committed.root)
    x = draw_opening_point(domain, transcript)
    value = poly_eval(F, coeffs, x) if claimed is None else claimed(x)
    claims = [(0, 0, 0)]
    fri_roots, final_poly, queries = scheme.open_batch(
        domain, [committed], claims, [value], x, transcript)
    return claims, [value], fri_roots, final_poly, queries


def _verify(scheme, domain, root, opening):
    claims, evals, fri_roots, final_poly, queries = opening
    transcript = Transcript(F)
    transcript.append_commitment(b"round", root)
    x = draw_opening_point(domain, transcript)
    return scheme.verify_batch(domain, [root], claims, evals, x, fri_roots,
                               final_poly, queries, transcript)


class TestCommitOpenVerify:
    def test_honest_opening_verifies(self, scheme):
        coeffs = [random.randrange(F.p) for _ in range(16)]
        domain, committed = _committed(scheme, coeffs)
        opening = _open(scheme, domain, committed, coeffs)
        assert _verify(scheme, domain, committed.root, opening)
        assert scheme.commit(coeffs).digest == committed.root

    def test_wrong_value_rejected(self, scheme):
        coeffs = [random.randrange(F.p) for _ in range(16)]
        domain, committed = _committed(scheme, coeffs)
        # the prover runs the whole opening honestly over a claimed value
        # that is off by one: G is not a polynomial and FRI says so
        opening = _open(scheme, domain, committed, coeffs,
                        claimed=lambda x: F.add(poly_eval(F, coeffs, x), 1))
        assert not _verify(scheme, domain, committed.root, opening)

    def test_wrong_polynomial_rejected(self, scheme):
        coeffs = [random.randrange(F.p) for _ in range(16)]
        other = list(coeffs)
        other[3] = F.add(other[3], 1)
        domain, committed = _committed(scheme, coeffs)
        _, other_round = _committed(scheme, other)
        # an opening of a different polynomial does not verify against
        # this commitment: its rows are not under this root
        opening = _open(scheme, domain, other_round, other)
        assert not _verify(scheme, domain, committed.root, opening)

    def test_commitment_is_deterministic(self, scheme):
        coeffs = [1, 2, 3]
        assert scheme.commit(coeffs).digest == scheme.commit(coeffs).digest

    def test_backends_domain_separated(self):
        # the two backends share one commitment protocol; what separates
        # them is the verifying key, whose digest names the scheme and
        # seeds the transcript — a kzg proof is not an ipa proof
        cs, asg = mul_circuit()
        kzg, ipa = KZGScheme(F), IPAScheme(F)
        pk, vk_kzg = keygen(cs, asg, kzg)
        _, vk_ipa = keygen(cs, asg, ipa)
        assert vk_kzg.digest() != vk_ipa.digest()
        proof = create_proof(pk, asg, kzg)
        verify_proof_strict(vk_kzg, proof, asg.instance_values(), kzg)
        assert_rejected(vk_ipa, proof, asg.instance_values(), ipa)
        assert_rejected(vk_kzg, proof, asg.instance_values(), ipa)


class TestCountersAndShape:
    def test_commit_counts_one_per_column_and_the_tree(self, scheme):
        domain = EvaluationDomain(F, 5)
        mat = domain.backend.from_ints(
            [[random.randrange(F.p) for _ in range(32)] for _ in range(3)])
        before = STATS.snapshot()
        committed = scheme.commit_round(domain, domain.lde(mat))
        delta = STATS.delta(before)
        assert delta["commitments"] == 3
        # N/2 = 32 leaves (each holding 2 x 3 values), 31 inner nodes
        assert delta["merkle_leaf_hashes"] == 32
        assert delta["merkle_node_hashes"] == 31
        assert committed.tree.depth == domain.extended_k - 1
        assert [len(r) for r in domain.lde_rows(committed.lde, [7, 0])] == [6, 6]

    def test_rounds_need_two_rows(self, scheme):
        domain = EvaluationDomain(F, 0)
        with pytest.raises(ValueError):
            scheme.commit_round(domain, domain.lde(
                domain.backend.from_ints([[5]])))


class TestKZGSetupBound:
    def test_within_bound_ok(self):
        scheme = KZGScheme(F, KZGSetup(max_k=4))
        scheme.commit([0] * 16)

    def test_exceeding_bound_raises(self):
        scheme = KZGScheme(F, KZGSetup(max_k=4))
        with pytest.raises(ValueError):
            scheme.commit([0] * 17)

    def test_ipa_has_no_bound(self):
        IPAScheme(F).commit([0] * 1024)


class TestModeledEnvelope:
    def test_msm_counts_match_paper(self):
        # KZG: n_FFT + d_max - 1; IPA: n_FFT + d_max  (section 7.4)
        assert KZGScheme(F).extra_msms(3) == 2
        assert IPAScheme(F).extra_msms(3) == 3

    def test_ipa_openings_grow_with_k(self):
        ipa = IPAScheme(F)
        assert ipa.opening_proof_bytes(20) > ipa.opening_proof_bytes(10)

    def test_kzg_openings_constant(self):
        kzg = KZGScheme(F)
        assert kzg.opening_proof_bytes(20) == kzg.opening_proof_bytes(10)

    def test_verifier_work_kzg_constant_ipa_linear(self):
        kzg, ipa = KZGScheme(F), IPAScheme(F)
        assert kzg.verifier_group_ops(20) == kzg.verifier_group_ops(10)
        assert ipa.verifier_group_ops(20) == 1024 * ipa.verifier_group_ops(10)


def test_unknown_scheme_raises():
    with pytest.raises(KeyError):
        scheme_by_name("groth16", F)


def test_commitment_digest_must_be_32_bytes():
    with pytest.raises(ValueError):
        Commitment(b"short")
