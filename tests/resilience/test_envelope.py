"""The proof envelope codec under a hostile-input threat model.

Three contracts are pinned here:

- the canonical encoding round-trips and is deterministic (equal
  envelopes encode to equal bytes, so the checksum is a content
  address);
- every malformed input is rejected with the *right*
  :class:`EnvelopeError` subtype **before any field arithmetic** — the
  global ``obs.stats`` counters must not move on a rejection path;
- the verifier holds the proof length and instance shape to the key's
  before it parses the proof;
- the mutation fuzzer (``tests/fuzz.py``) holds:
  hundreds of mutants, 100% typed rejections, zero escapes.
"""

import numpy as np
import pytest

from repro.envelope import (
    SCHEMA_V2,
    ProofEnvelope,
    decode_envelope,
    envelope_config_digest,
    is_envelope,
    verify_envelope,
)
from repro.envelope.format import (
    MAX_ENVELOPE_BYTES,
    MAX_INSTANCE_COLUMNS,
    MAX_PROOF_BYTES,
    MAX_PUBLIC_INPUTS,
)
from repro.model import get_model
from repro.obs.stats import STATS
from repro.resilience.errors import (
    EnvelopeCapError,
    EnvelopeChecksumError,
    EnvelopeError,
    EnvelopeSchemaError,
    EnvelopeTruncatedError,
    ProofFormatError,
    VerificationFailure,
)
from repro.runtime import prove_model

from tests.fuzz import (
    OFF_KEY_SHAPES,
    local_envelope_checker,
    run_envelope_fuzz,
    spy_proof_parsing,
)

rng = np.random.default_rng(31)


@pytest.fixture(scope="module")
def proven():
    spec = get_model("dlrm", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                       scale_bits=5)


@pytest.fixture(scope="module")
def envelope(proven):
    return proven.envelope()


@pytest.fixture(scope="module")
def encoded(envelope):
    return envelope.encode()


def _reject(data, exc_type):
    """Decode must raise ``exc_type`` without any prover-side op firing.

    The envelope decoder's contract is "reject before expensive work":
    a rejection may cost parsing and a hash, but never an NTT, a
    commitment, a lookup pass — the counters the prover hot path bumps.
    """
    before = STATS.snapshot()
    with pytest.raises(exc_type) as info:
        decode_envelope(data)
    moved = {k: v for k, v in STATS.delta(before).items() if v}
    assert not moved, "decoder rejection did %r work" % moved
    return info.value


class TestRoundTrip:
    def test_decode_inverts_encode(self, envelope, encoded):
        again = decode_envelope(encoded)
        assert again.model == envelope.model
        assert again.scheme_name == envelope.scheme_name
        assert again.vk_hash == envelope.vk_hash
        assert again.config_digest == envelope.config_digest
        assert again.instance == [list(col) for col in envelope.instance]
        assert again.proof_bytes == envelope.proof_bytes

    def test_encoding_is_canonical(self, encoded):
        # decode -> re-encode is the identity, so checksum == content id
        assert decode_envelope(encoded).encode() == encoded

    def test_is_envelope_sniffs_only_the_schema_prefix(self, proven,
                                                       encoded):
        from repro.halo2.proof import proof_to_bytes

        assert is_envelope(encoded)
        assert not is_envelope(proof_to_bytes(proven.proof))
        assert not is_envelope(b"")
        assert not is_envelope(b"\x00garbage")

    def test_decoded_checksum_is_recorded(self, encoded):
        env = decode_envelope(encoded)
        assert env.checksum == encoded[-16:].hex()

    def test_describe_is_json_friendly(self, envelope):
        import json

        doc = envelope.describe()
        assert doc["schema"] == SCHEMA_V2
        assert doc["public_inputs"] == envelope.num_public_inputs()
        json.dumps(doc)

    def test_config_digest_binds_every_knob(self):
        base = envelope_config_digest(10, 5, 9, None)
        assert base == envelope_config_digest(10, 5, 9, None)
        assert base != envelope_config_digest(11, 5, 9, None)
        assert base != envelope_config_digest(10, 6, 9, None)
        assert base != envelope_config_digest(10, 5, 10, None)
        assert base != envelope_config_digest(10, 5, 9, 8)


class TestDecoderCapEdges:
    """Satellite contract: each edge rejects with the right subtype and
    zero prover-side op counters (asserted via ``obs.stats``)."""

    def test_zero_instance_columns_rejected(self, envelope):
        empty = ProofEnvelope(
            scheme_name=envelope.scheme_name, model=envelope.model,
            vk_hash=envelope.vk_hash, config_digest=envelope.config_digest,
            instance=[], proof_bytes=envelope.proof_bytes)
        exc = _reject(empty.encode(), EnvelopeError)
        assert not isinstance(exc, (EnvelopeCapError, EnvelopeSchemaError,
                                    EnvelopeTruncatedError,
                                    EnvelopeChecksumError))
        assert "no public inputs" in str(exc)

    def test_exactly_at_cap_accepted(self, envelope, encoded):
        # at each ceiling the decoder goes on to its next check: a declared
        # count or length equal to the ceiling runs off the data, and an
        # envelope of exactly the ceiling's bytes is parsed to its end
        assert decode_envelope(encoded).model == envelope.model
        for field, ceiling in (("inputs", MAX_PUBLIC_INPUTS),
                               ("proof", MAX_PROOF_BYTES)):
            _reject(_declare(envelope, encoded, field, ceiling),
                    EnvelopeTruncatedError)
        padded = encoded + bytes(MAX_ENVELOPE_BYTES - len(encoded))
        exc = _reject(padded, EnvelopeError)
        assert "trailing bytes" in str(exc)

    def test_one_past_each_cap_rejected(self, envelope, encoded):
        for field, ceiling in (("columns", MAX_INSTANCE_COLUMNS),
                               ("inputs", MAX_PUBLIC_INPUTS),
                               ("proof", MAX_PROOF_BYTES)):
            exc = _reject(_declare(envelope, encoded, field, ceiling + 1),
                          EnvelopeCapError)
            assert exc.attribution().get("cap") == ceiling
        exc = _reject(encoded + bytes(MAX_ENVELOPE_BYTES + 1 - len(encoded)),
                      EnvelopeCapError)
        assert exc.attribution().get("cap") == MAX_ENVELOPE_BYTES

    def test_empty_proof_bytes_rejected(self, envelope):
        hollow = ProofEnvelope(
            scheme_name=envelope.scheme_name, model=envelope.model,
            vk_hash=envelope.vk_hash, config_digest=envelope.config_digest,
            instance=envelope.instance, proof_bytes=b"")
        exc = _reject(hollow.encode(), EnvelopeError)
        assert "empty proof" in str(exc)

    def test_oversized_envelope_rejected_before_parsing(self):
        # not even a schema id: the size is all the decoder reads
        exc = _reject(b"\xff" * (MAX_ENVELOPE_BYTES + 1), EnvelopeCapError)
        assert exc.attribution().get("size") == MAX_ENVELOPE_BYTES + 1

    def test_forged_count_rejected_before_allocation(self, envelope,
                                                     encoded):
        # a 2^31 public-input count must die on the cap check, not
        # allocate — the mutant keeps a *valid* checksum so the cap is
        # what rejects it, proving caps do not hide behind integrity
        import hashlib

        header = (1 + len(SCHEMA_V2) + 1 + len(envelope.scheme_name)
                  + 1 + len(envelope.model) + 1 + 32 + 16)
        forged = bytearray(encoded[:-16])
        forged[header + 4 : header + 8] = (1 << 31).to_bytes(4, "little")
        forged += hashlib.blake2b(bytes(forged), digest_size=16).digest()
        _reject(bytes(forged), EnvelopeCapError)

    def test_every_truncation_rejected_cleanly(self, encoded):
        for cut in range(0, len(encoded) - 1, max(1, len(encoded) // 64)):
            _reject(encoded[:cut], EnvelopeError)

    def test_schema_confusion_rejected(self, encoded):
        mutated = bytearray(encoded)
        mutated[1] ^= 0x20  # flip case inside the schema id
        _reject(bytes(mutated), EnvelopeSchemaError)

    def test_checksum_tamper_rejected(self, encoded):
        mutated = bytearray(encoded)
        mutated[-1] ^= 0xFF
        _reject(bytes(mutated), EnvelopeChecksumError)

    def test_trailing_garbage_rejected(self, encoded):
        _reject(encoded + b"\x00", EnvelopeError)

    def test_caps_checked_before_checksum(self, envelope, encoded):
        # both violations at once: the over-cap body must win, because a
        # hostile sender can always compute a valid checksum
        mutated = bytearray(_declare(envelope, encoded, "proof",
                                     MAX_PROOF_BYTES + 1))
        mutated[-1] ^= 0xFF
        _reject(bytes(mutated), EnvelopeCapError)


def _restamp(body: bytes) -> bytes:
    import hashlib

    return body + hashlib.blake2b(body, digest_size=16).digest()


def _declare(envelope, encoded: bytes, field: str, value: int) -> bytes:
    """``encoded`` with one declared count rewritten to ``value`` and the
    checksum recomputed: the instance column count, column 0's value
    count, or the proof length."""
    columns = (1 + len(SCHEMA_V2) + 1 + len(envelope.scheme_name)
               + 1 + len(envelope.model) + 1 + 32 + 16)
    at = {"columns": columns, "inputs": columns + 4,
          "proof": columns + 4 + sum(4 + 8 * len(col)
                                     for col in envelope.instance)}[field]
    body = bytearray(encoded[:-16])
    body[at : at + 4] = value.to_bytes(4, "little")
    return _restamp(bytes(body))


class TestSchemaV2:
    """v2 = succinct proofs + 8-byte scalars; v1 is refused."""

    def width_offset(self, envelope):
        return (1 + len(SCHEMA_V2) + 1 + len(envelope.scheme_name)
                + 1 + len(envelope.model))

    def test_v1_envelope_refused_before_any_field_arithmetic(self, encoded):
        # a well-formed v1 header (valid checksum, too) must die on the
        # schema id: nothing after it is even parsed
        assert encoded[1 : 1 + len(SCHEMA_V2)] == SCHEMA_V2.encode()
        v1 = bytearray(encoded[:-16])
        v1[len(SCHEMA_V2)] = ord("1")
        exc = _reject(_restamp(bytes(v1)), EnvelopeSchemaError)
        assert "zkml-proof-envelope/v1" in str(exc)

    def test_only_known_widths_decode(self, envelope, encoded):
        assert encoded[self.width_offset(envelope)] == 8
        for width in (0, 4, 16, 32, 33, 255):
            forged = bytearray(encoded[:-16])
            forged[self.width_offset(envelope)] = width
            _reject(_restamp(bytes(forged)), EnvelopeSchemaError)

    def test_counts_are_checked_at_the_declared_width(self, envelope,
                                                      encoded):
        # a column count promising more 8-byte scalars than the envelope
        # holds runs off the data and is refused (typed, no arithmetic)
        # whatever the checksum says
        short = ProofEnvelope(
            scheme_name=envelope.scheme_name, model=envelope.model,
            vk_hash=envelope.vk_hash, config_digest=envelope.config_digest,
            instance=envelope.instance, proof_bytes=b"\x01")
        data = short.encode()[:-16]
        # width byte, vk hash, config digest, column count: then column 0's
        count_at = self.width_offset(envelope) + 1 + 32 + 16 + 4
        count = int.from_bytes(data[count_at : count_at + 4], "little")
        # more scalars than the whole envelope (checksum included) holds
        forged = bytearray(data)
        forged[count_at : count_at + 4] = (count + len(data) // 8 + 3).to_bytes(
            4, "little")
        _reject(_restamp(bytes(forged)), EnvelopeTruncatedError)

    def test_scalar_that_does_not_fit_cannot_be_encoded(self, envelope):
        import dataclasses

        for bad in (1 << 64, -1):
            instance = [list(col) for col in envelope.instance]
            instance[0][0] = bad
            with pytest.raises(EnvelopeError, match="does not fit 8 bytes"):
                dataclasses.replace(envelope, instance=instance).encode()

    def test_default_caps_are_sized_for_succinct_proofs(self, envelope,
                                                        encoded):
        # docs/verification.md §Caps: 4 MB of proof is > 10x the largest
        # proof this tree produces; the envelope ceiling adds the
        # public-input ceiling at 8-byte scalars (2 MB) and rounds up
        assert MAX_PROOF_BYTES == 4 << 20
        assert MAX_ENVELOPE_BYTES == 8 << 20
        assert MAX_PROOF_BYTES + 8 * MAX_PUBLIC_INPUTS <= MAX_ENVELOPE_BYTES
        assert len(envelope.proof_bytes) * 10 < MAX_PROOF_BYTES
        assert len(encoded) < 300_000  # dlrm-mini, k=9: was 805 KB in v1


class TestVerifyEnvelope:
    def test_good_envelope_verifies(self, proven, envelope):
        assert verify_envelope(envelope, proven.vk) is True

    def test_vk_hash_mismatch_rejected(self, proven, envelope):
        import dataclasses

        relabeled = dataclasses.replace(envelope,
                                        vk_hash=bytes(32))
        with pytest.raises(VerificationFailure, match="verifying-key"):
            verify_envelope(relabeled, proven.vk)

    def test_scheme_mismatch_rejected(self, proven, envelope):
        import dataclasses

        other = dataclasses.replace(envelope, scheme_name="ipa")
        with pytest.raises(VerificationFailure, match="scheme"):
            verify_envelope(other, proven.vk)

    def test_tampered_instance_rejected(self, proven, envelope):
        import dataclasses

        instance = [list(col) for col in envelope.instance]
        instance[0][0] += 1
        tampered = dataclasses.replace(envelope, instance=instance)
        with pytest.raises(VerificationFailure):
            verify_envelope(tampered, proven.vk)

    @pytest.mark.parametrize("reshape", sorted(OFF_KEY_SHAPES))
    def test_off_key_shape_refused_before_parsing(self, proven, envelope,
                                                  reshape, monkeypatch):
        parsed = spy_proof_parsing(monkeypatch)
        # through the codec: the mutant carries a valid checksum
        mutant = decode_envelope(OFF_KEY_SHAPES[reshape](envelope).encode())
        with pytest.raises(ProofFormatError) as info:
            verify_envelope(mutant, proven.vk)
        assert type(info.value) is ProofFormatError
        assert parsed == []
        # the message names what the envelope has and what the key wants
        vk = proven.vk
        got, want = {
            "proof": (len(mutant.proof_bytes), vk.shape.proof_bytes),
            "columns": (len(mutant.instance), vk.cs.num_instance),
            "rows": (len(mutant.instance[-1]), vk.n),
        }[reshape.split("_")[0]]
        assert "%d" % got in str(info.value)
        assert "%d" % want in str(info.value)
        verify_envelope(envelope, proven.vk)
        assert len(parsed) == 1


class TestEnvelopeFuzz:
    def test_two_hundred_mutants_all_typed_rejections(self, proven,
                                                      encoded):
        report = run_envelope_fuzz(encoded,
                                   local_envelope_checker(proven.vk),
                                   iterations=200, seed=7)
        assert report.iterations == 200
        assert report.accepted == [], report.summary()
        assert report.escapes == [], report.summary()
        assert report.rejected_format + report.rejected_verify == 200
        # both rejection layers must actually be exercised
        assert report.rejected_format > 0
        assert report.rejected_verify > 0
        assert report.ok

    def test_fuzz_is_seed_deterministic(self, proven, encoded):
        check = local_envelope_checker(proven.vk)
        a = run_envelope_fuzz(encoded, check, iterations=30, seed=3)
        b = run_envelope_fuzz(encoded, check, iterations=30, seed=3)
        assert (a.rejected_format, a.rejected_verify) \
            == (b.rejected_format, b.rejected_verify)
