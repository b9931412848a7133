"""Soundness and format tests for the succinct opening protocol.

Each test fails if the check it names is removed from the verifier:

- the *tamper matrix*: every kind of object a proof carries, perturbed
  one at a time and re-encoded under a valid envelope checksum, is
  rejected with a typed error — on dlrm-mini and on a k=7 gadget circuit
  with lookups, through the same code;
- the *degree attack*: a committed column that is not a low-degree
  extension is caught by FRI even though every Merkle path is honest;
- the *wrong-evaluation attack*: a false claimed evaluation, with the
  quotient's claim adjusted so the constraint identity at ``x`` still
  balances, is caught by the DEEP quotient;
- *every byte is bound*: seeded single-bit flips anywhere in the proof
  bytes never verify.
"""

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.commit.transcript import Transcript
from repro.envelope import ProofEnvelope, decode_envelope, verify_envelope
from repro.field import GOLDILOCKS
from repro.halo2 import create_proof, keygen, prover
from repro.halo2.shape import (
    ADVICE_ROUND,
    ALPHA,
    BETA,
    GAMMA,
    QUOTIENT_ROUND,
    THETA,
)
from repro.halo2.proof import proof_from_bytes, proof_to_bytes
from repro.halo2.verifier import folded_constraints_at, verify_proof_strict
from repro.model import get_model
from repro.resilience.errors import (
    ProofFormatError,
    ResilienceError,
    VerificationFailure,
)
from repro.runtime import prove_model

from tests.halo2.circuits import gadget_circuit, relu_lookup_circuit
from tests.halo2.test_lookup_argument import two_table_circuit
from tests.verdict import assert_rejected

F = GOLDILOCKS
TYPED = (ProofFormatError, VerificationFailure)


@dataclasses.dataclass
class Case:
    """A proven statement plus what an envelope around it needs."""

    vk: object
    proof: object
    instance: list
    scheme: object
    template: ProofEnvelope

    def envelope_bytes(self, proof_bytes: bytes) -> bytes:
        """``proof_bytes`` under a fresh, valid envelope checksum."""
        return dataclasses.replace(self.template,
                                   proof_bytes=proof_bytes).encode()

    def verdict(self, proof_bytes: bytes):
        """Decode + verify the envelope; the exception or ``True``."""
        try:
            env = decode_envelope(self.envelope_bytes(proof_bytes))
            return verify_envelope(env, self.vk)
        except ResilienceError as exc:
            return exc


@pytest.fixture(scope="module")
def dlrm():
    spec = get_model("dlrm", "mini")
    rng = np.random.default_rng(17)
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    result = prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                         scale_bits=5)
    return Case(result.vk, result.proof, result.instance,
                scheme_by_name("kzg", result.vk.field), result.envelope())


@pytest.fixture(scope="module")
def gadgets():
    b = gadget_circuit()
    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(b.cs, b.asg, scheme)
    proof = create_proof(pk, b.asg, scheme)
    template = ProofEnvelope(
        scheme_name="kzg", model="gadgets", vk_hash=vk.digest(),
        config_digest=bytes(16), instance=b.asg.instance_values(),
        proof_bytes=proof_to_bytes(proof))
    return Case(vk, proof, b.asg.instance_values(), scheme, template)


@pytest.fixture(params=["dlrm", "gadgets"])
def case(request):
    return request.getfixturevalue(request.param)


def flip(digest: bytes, bit: int = 0) -> bytes:
    out = bytearray(digest)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def replace_query(proof, q, **changes):
    proof = copy.copy(proof)
    proof.queries = list(proof.queries)
    proof.queries[q] = dataclasses.replace(proof.queries[q], **changes)
    return proof


def with_row(proof, q, slot, **changes):
    rows = list(proof.queries[q].rows)
    rows[slot] = dataclasses.replace(rows[slot], **changes)
    return replace_query(proof, q, rows=tuple(rows))


def with_fold(proof, q, layer, **changes):
    folds = list(proof.queries[q].folds)
    folds[layer] = dataclasses.replace(folds[layer], **changes)
    return replace_query(proof, q, folds=tuple(folds))


def tampered_proofs(case):
    """``(label, mutated proof object)`` for every row of the matrix."""
    proof, p = case.proof, case.vk.field.p
    for i in range(len(proof.round_roots)):
        roots = list(proof.round_roots)
        roots[i] = flip(roots[i], 5)
        yield "round root %d" % i, dataclasses.replace(proof,
                                                       round_roots=roots)
    for j in (0, len(proof.evals) // 2, len(proof.evals) - 1):
        evals = list(proof.evals)
        evals[j] ^= 1
        yield "claimed evaluation %d" % j, dataclasses.replace(proof,
                                                               evals=evals)
    for slot in range(len(proof.queries[0].rows)):
        values = list(proof.queries[7].rows[slot].values)
        values[-1] ^= 1
        yield ("leaf value, round slot %d" % slot,
               with_row(proof, 7, slot, values=tuple(values)))
    path = proof.queries[3].rows[1].path
    for depth in range(len(path)):
        bad = path[:depth] + (flip(path[depth], 77),) + path[depth + 1:]
        yield "row path node depth %d" % depth, with_row(proof, 3, 1, path=bad)
    assert proof.queries[0].folds, "the matrix needs a committed fold layer"
    for side in (0, 1):
        pair = list(proof.queries[11].folds[0].pair)
        pair[side] = (pair[side] + 1) % p
        yield ("fold sibling side %d" % side,
               with_fold(proof, 11, 0, pair=tuple(pair)))
    path = proof.queries[2].folds[-1].path
    for depth in range(len(path)):
        bad = path[:depth] + (flip(path[depth]),) + path[depth + 1:]
        yield ("fold path node depth %d" % depth,
               with_fold(proof, 2, len(proof.queries[2].folds) - 1, path=bad))
    for i in range(len(proof.fri_roots)):
        roots = list(proof.fri_roots)
        roots[i] = flip(roots[i], 200)
        yield "fold-layer root %d" % i, dataclasses.replace(proof,
                                                            fri_roots=roots)
    for j in (0, len(proof.final_poly) - 1):
        final = list(proof.final_poly)
        final[j] = (final[j] + 1) % p
        yield "final coefficient %d" % j, dataclasses.replace(
            proof, final_poly=final)
    yield "extra final coefficient", dataclasses.replace(
        proof, final_poly=list(proof.final_poly) + [0])
    swapped = list(proof.queries)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    yield "two queries swapped", dataclasses.replace(proof, queries=swapped)
    yield "one query dropped", dataclasses.replace(proof,
                                                   queries=proof.queries[:-1])


class TestTamperMatrix:
    def test_control_verifies(self, case):
        assert case.verdict(proof_to_bytes(case.proof)) is True
        verify_proof_strict(case.vk, case.proof, case.instance, case.scheme)

    def test_every_tampered_object_is_rejected_typed(self, case):
        good = proof_to_bytes(case.proof)
        labels = []
        for label, mutant in tampered_proofs(case):
            labels.append(label)
            # the live object, through the strict verifier
            assert_rejected(case.vk, mutant, case.instance, case.scheme)
            # and its bytes, under a *valid* envelope checksum
            data = proof_to_bytes(mutant)
            assert data != good, label
            verdict = case.verdict(data)
            assert isinstance(verdict, TYPED), (label, verdict)
        assert len(labels) >= 25

    def test_path_truncated_by_a_node(self, case):
        # a ragged object cannot even be encoded ...
        row = case.proof.queries[4].rows[0]
        ragged = with_row(case.proof, 4, 0, path=row.path[:-1])
        with pytest.raises(ProofFormatError):
            verify_proof_strict(case.vk, ragged, case.instance, case.scheme)
        with pytest.raises(ProofFormatError, match="differ in shape"):
            proof_to_bytes(ragged)
        # ... and bytes with one node cut out no longer parse
        good = proof_to_bytes(case.proof)
        cut = len(good) - 100
        verdict = case.verdict(good[:cut] + good[cut + 32:])
        assert isinstance(verdict, ProofFormatError)
        # every query shortened alike parses, but is not the key's proof
        # length, so the envelope is refused before it is parsed; parsed
        # anyway, it fails the shape check
        short = proof_to_bytes(dataclasses.replace(case.proof, queries=[
            dataclasses.replace(q, rows=tuple(
                dataclasses.replace(r, path=r.path[:-1]) for r in q.rows))
            for q in case.proof.queries]))
        verdict = case.verdict(short)
        assert isinstance(verdict, ProofFormatError)
        assert "%d-byte proof" % len(short) in str(verdict)
        with pytest.raises(ProofFormatError, match="path node"):
            verify_proof_strict(case.vk, proof_from_bytes(short),
                                case.instance, case.scheme)


def _prove(cs, asg):
    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(cs, asg, scheme)
    return scheme, pk, vk


class TestDegreeAttack:
    """Honest on the base domain, arbitrary on the coset: the committed
    column is not the extension of anything of degree < n."""

    @pytest.mark.parametrize("k", [4, 7])
    def test_non_low_degree_helper_column_is_rejected(self, monkeypatch, k):
        cs, asg = two_table_circuit(k=k)
        scheme, pk, vk = _prove(cs, asg)
        real = prover._interpolate_commit_rows
        calls = []

        def attacking(domain, sch, rows):
            polys, committed = real(domain, sch, rows)
            calls.append(rows.shape[0])
            if len(calls) == 2:  # the helper round
                rng = np.random.default_rng(k)
                lde = committed.lde.copy()
                lde[3] = rng.integers(0, F.p, size=lde[3].shape,
                                      dtype=np.uint64)
                committed = sch.commit_round(domain, lde)
            return polys, committed

        monkeypatch.setattr(prover, "_interpolate_commit_rows", attacking)
        forged = create_proof(pk, asg, scheme)
        assert calls == [cs.num_advice, vk.shape.round_widths[2]]
        # every path in it is honest: it survives a byte round trip and
        # the shape check, and dies in the low-degree test
        forged = proof_from_bytes(proof_to_bytes(forged))
        with pytest.raises(VerificationFailure):
            verify_proof_strict(vk, forged, asg.instance_values(), scheme)

        monkeypatch.setattr(prover, "_interpolate_commit_rows", real)
        verify_proof_strict(vk, create_proof(pk, asg, scheme),
                            asg.instance_values(), scheme)


class TestWrongEvaluationAttack:
    """Honest commitments; one advice evaluation claimed off by one, and
    the first quotient piece's claim moved so that the constraint
    identity at ``x`` still balances.  Only the opening can tell."""

    def test_rejected_by_the_opening_not_the_identity(self, monkeypatch):
        cs, asg = relu_lookup_circuit(k=6)
        scheme, pk, vk = _prove(cs, asg)
        instance = asg.instance_values()
        drawn = {}
        real_challenge = Transcript.challenge_scalar

        def spy(self, label):
            value = real_challenge(self, label)
            drawn[label.decode()] = value
            return value

        real_evals = prover._claimed_evaluations
        state = {}

        def lying(domain, polys, claims, x):
            evals = real_evals(domain, polys, claims, x)
            ch = {name: drawn[name] for name in (THETA, BETA, GAMMA, ALPHA)}
            honest = folded_constraints_at(vk, evals, instance, ch,
                                           drawn["y"], x)
            victim = next(j for j, c in enumerate(claims)
                          if c[0] == ADVICE_ROUND and c[2] == 0)
            evals[victim] = F.add(evals[victim], 1)
            forged = folded_constraints_at(vk, evals, instance, ch,
                                           drawn["y"], x)
            assert forged != honest  # the lie shows up in the identity ...
            q0 = claims.index((QUOTIENT_ROUND, 0, 0))
            evals[q0] = F.add(evals[q0], F.mul(
                F.sub(forged, honest), F.inv(domain.vanishing_eval(x))))
            state.update(ch=ch, y=drawn["y"], x=x)  # ... until rebalanced
            return evals

        monkeypatch.setattr(Transcript, "challenge_scalar", spy)
        monkeypatch.setattr(prover, "_claimed_evaluations", lying)
        forged = create_proof(pk, asg, scheme)
        monkeypatch.undo()

        # the identity the verifier checks first holds on the forged claims
        x, x_n = state["x"], F.pow(state["x"], vk.n)
        q = 0
        for claim, value in reversed(list(zip(vk.shape.claims, forged.evals))):
            if claim[0] == QUOTIENT_ROUND:
                q = F.add(F.mul(q, x_n), value)
        assert folded_constraints_at(
            vk, forged.evals, instance, state["ch"], state["y"], x
        ) == F.mul(vk.domain.vanishing_eval(x), q)
        # so it is the DEEP-FRI opening that rejects
        with pytest.raises(VerificationFailure):
            verify_proof_strict(vk, forged, instance, scheme)
        verify_proof_strict(vk, create_proof(pk, asg, scheme), instance,
                            scheme)


class TestEveryByteIsBound:
    FLIPS = 2000

    def test_seeded_single_bit_flips_never_verify(self, dlrm):
        good = proof_to_bytes(dlrm.proof)
        rng = random.Random(2024)
        for _ in range(self.FLIPS):
            offset, bit = rng.randrange(len(good)), rng.randrange(8)
            data = bytearray(good)
            data[offset] ^= 1 << bit
            verdict = dlrm.verdict(bytes(data))
            assert isinstance(verdict, TYPED), (offset, bit, verdict)

    def test_every_header_bit_is_a_format_error(self, dlrm):
        # magic, scalar width and the first count: the decoder's own
        # ground, refused before the verifier sees anything
        good = proof_to_bytes(dlrm.proof)
        for offset in range(13):
            for bit in range(8):
                data = bytearray(good)
                data[offset] ^= 1 << bit
                verdict = dlrm.verdict(bytes(data))
                assert isinstance(verdict, ProofFormatError), (offset, bit)
