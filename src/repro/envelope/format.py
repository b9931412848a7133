"""Canonical encoding/decoding of the ``zkml-proof-envelope/v2`` format.

Wire layout (all integers little-endian)::

    [u8  len][schema id ascii]          "zkml-proof-envelope/v2"
    [u8  len][scheme ascii]             "kzg" | "ipa"
    [u8  len][model utf-8]              zoo model name
    [u8  scalar width]                  8 (a Goldilocks residue)
    [32B verifying-key hash]            VerifyingKey.digest()
    [16B config digest]                 envelope_config_digest(...)
    [u32 num instance columns]
      per column: [u32 count][count x 8B]
    [u32 proof length][proof bytes]     repro.halo2.proof wire format
    [16B blake2b-16 checksum]           over every preceding byte

Scalars travel at the field's width: a Goldilocks public input is 8
bytes, not 32 (v1 wrote everything 32 bytes wide; a k=12 instance column
alone was 128 KB).  The width byte is always 8; both decoders refuse any
other value.

The encoding is canonical: one byte string per envelope value, no
optional fields, no padding — equal envelopes encode to equal bytes, so
the checksum doubles as a content address.

The decoder is written against a hostile-input threat model (see
``docs/verification.md``): the total size cap is checked before the
first byte is parsed, every declared count is checked against its cap
*and* the remaining data before anything sized by it is allocated, and
the checksum is verified last — a crafted envelope can carry a valid
checksum, so caps must not wait for it.  Rejections raise typed
:class:`~repro.resilience.errors.EnvelopeError` subclasses naming the
violation; this module never touches field arithmetic, so a rejection
costs no NTT/commitment work (asserted by tests via ``obs.stats``).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from repro.resilience.errors import (
    EnvelopeCapError,
    EnvelopeChecksumError,
    EnvelopeError,
    EnvelopeSchemaError,
    EnvelopeTruncatedError,
)

__all__ = [
    "SCHEMA_V2",
    "KNOWN_SCHEMES",
    "CHECKSUM_BYTES",
    "MAX_ENVELOPE_BYTES",
    "MAX_PROOF_BYTES",
    "MAX_INSTANCE_COLUMNS",
    "MAX_PUBLIC_INPUTS",
    "ProofEnvelope",
    "envelope_config_digest",
    "encode_envelope",
    "decode_envelope",
    "is_envelope",
]

#: The one schema id this decoder speaks.  v2 = succinct proofs
#: (``ZKMLPRF2``), scalars at field width, constraint-binding vk hashes.
SCHEMA_V2 = "zkml-proof-envelope/v2"

#: Commitment schemes an envelope may name.
KNOWN_SCHEMES = ("kzg", "ipa")

#: Width of the trailing blake2b integrity checksum.
CHECKSUM_BYTES = 16

#: Bytes per scalar, declared by the envelope's width byte.
SCALAR_WIDTH = 8
_VK_HASH_BYTES = 32
_CONFIG_DIGEST_BYTES = 16


# Fixed decoder ceilings.  They bound *declared* values before anything
# sized by them is allocated, so a hostile length prefix cannot drive
# memory proportional to a number the attacker wrote; the exact sizes are
# the verifying key's (``verify_envelope``).  Proofs grow with ``log^2``
# of the circuit — a dlrm-mini k=9 proof is ~140 KB, an mnist k=12 one
# ~280 KB — so 4 MB of proof is >10x headroom over anything this tree
# proves; the envelope ceiling adds the public-input ceiling at 8-byte
# scalars (2 MB) and rounds up (docs/verification.md §Caps).
MAX_ENVELOPE_BYTES = 8 << 20
MAX_PROOF_BYTES = 4 << 20
MAX_INSTANCE_COLUMNS = 64
MAX_PUBLIC_INPUTS = 1 << 18


@dataclass
class ProofEnvelope:
    """One proof plus everything needed to verify it, self-describing."""

    scheme_name: str
    model: str
    vk_hash: bytes
    config_digest: bytes
    instance: List[List[int]]
    proof_bytes: bytes
    schema: str = SCHEMA_V2
    #: Filled by :func:`decode_envelope` with the envelope's own trailing
    #: checksum (hex); ``encode()`` recomputes it either way.
    checksum: str = dataclass_field(default="", repr=False)

    @property
    def vk_hash_hex(self) -> str:
        return self.vk_hash.hex()

    @property
    def config_digest_hex(self) -> str:
        return self.config_digest.hex()

    def num_public_inputs(self) -> int:
        return sum(len(col) for col in self.instance)

    def encode(self) -> bytes:
        return encode_envelope(self)

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary (no proof bytes) for logs/status."""
        return {
            "schema": self.schema,
            "scheme": self.scheme_name,
            "model": self.model,
            "vk_hash": self.vk_hash_hex,
            "config_digest": self.config_digest_hex,
            "instance_columns": len(self.instance),
            "public_inputs": self.num_public_inputs(),
            "proof_bytes": len(self.proof_bytes),
        }


def envelope_config_digest(num_cols: int, scale_bits: int, k: int,
                           lookup_bits: Optional[int] = None) -> bytes:
    """Digest of the proving configuration the circuit was built under.

    Binds the envelope to the scale/columns configuration so a verifier
    can refuse a proof produced under a config its registry has never
    seen, without shipping the whole config in the envelope.
    """
    h = hashlib.blake2b(digest_size=_CONFIG_DIGEST_BYTES)
    h.update(b"zkml-config:%d:%d:%d:%d"
             % (num_cols, scale_bits, k,
                -1 if lookup_bits is None else lookup_bits))
    return h.digest()


def _write_str(out: bytearray, value: str, what: str) -> None:
    raw = value.encode("utf-8")
    if len(raw) > 255:
        raise EnvelopeError("%s %r exceeds 255 encoded bytes" % (what, value))
    out.append(len(raw))
    out += raw


def encode_envelope(env: ProofEnvelope) -> bytes:
    """Serialize an envelope to its canonical byte string."""
    if env.schema != SCHEMA_V2:
        raise EnvelopeSchemaError("cannot encode schema %r (this writer "
                                  "speaks %r)" % (env.schema, SCHEMA_V2))
    if env.scheme_name not in KNOWN_SCHEMES:
        raise EnvelopeSchemaError("unknown scheme %r (expected one of %s)"
                                  % (env.scheme_name,
                                     "/".join(KNOWN_SCHEMES)))
    if len(env.vk_hash) != _VK_HASH_BYTES:
        raise EnvelopeError("vk_hash must be %d bytes, got %d"
                            % (_VK_HASH_BYTES, len(env.vk_hash)))
    if len(env.config_digest) != _CONFIG_DIGEST_BYTES:
        raise EnvelopeError("config_digest must be %d bytes, got %d"
                            % (_CONFIG_DIGEST_BYTES, len(env.config_digest)))
    out = bytearray()
    _write_str(out, env.schema, "schema id")
    _write_str(out, env.scheme_name, "scheme")
    _write_str(out, env.model, "model name")
    out.append(SCALAR_WIDTH)
    out += env.vk_hash
    out += env.config_digest
    out += len(env.instance).to_bytes(4, "little")
    for index, col in enumerate(env.instance):
        out += len(col).to_bytes(4, "little")
        try:
            out += struct.pack("<%dQ" % len(col), *col)
        except (struct.error, OverflowError, TypeError):
            raise EnvelopeError(
                "instance column %d holds a value that does not fit %d "
                "bytes" % (index, SCALAR_WIDTH), column=index) from None
    out += len(env.proof_bytes).to_bytes(4, "little")
    out += env.proof_bytes
    out += hashlib.blake2b(bytes(out), digest_size=CHECKSUM_BYTES).digest()
    return bytes(out)


def is_envelope(data: bytes) -> bool:
    """Cheap sniff: does ``data`` start with the v2 schema id?

    Tells an envelope from other byte strings (say, a bare serialized
    proof) without attempting a full parse; the decoder itself refuses
    anything else with a typed :class:`EnvelopeSchemaError`.
    """
    prefix = bytes([len(SCHEMA_V2)]) + SCHEMA_V2.encode()
    return bytes(data[: len(prefix)]) == prefix


# -- bounds-checked readers ---------------------------------------------------


def _read_str(data: bytes, pos: int, what: str) -> Tuple[str, int]:
    if pos + 1 > len(data):
        raise EnvelopeTruncatedError("envelope ends before %s length byte"
                                     % what, offset=pos)
    n = data[pos]
    pos += 1
    if pos + n > len(data):
        raise EnvelopeTruncatedError(
            "envelope ends inside %s (%d bytes promised, %d left)"
            % (what, n, len(data) - pos), offset=pos)
    try:
        value = data[pos : pos + n].decode("utf-8")
    except UnicodeDecodeError:
        raise EnvelopeSchemaError("%s is not valid utf-8" % what, offset=pos)
    return value, pos + n


def _read_fixed(data: bytes, pos: int, n: int, what: str) -> Tuple[bytes, int]:
    if pos + n > len(data):
        raise EnvelopeTruncatedError(
            "envelope ends inside %s (%d bytes needed, %d left)"
            % (what, n, len(data) - pos), offset=pos)
    return bytes(data[pos : pos + n]), pos + n


def _read_u32(data: bytes, pos: int, what: str) -> Tuple[int, int]:
    if pos + 4 > len(data):
        raise EnvelopeTruncatedError("envelope ends before %s" % what,
                                     offset=pos)
    return int.from_bytes(data[pos : pos + 4], "little"), pos + 4


def decode_envelope(data: bytes) -> ProofEnvelope:
    """Parse and integrity-check a serialized envelope.

    Check order is part of the contract (tests pin it):

    1. total size against :data:`MAX_ENVELOPE_BYTES` — before reading
       byte zero;
    2. schema id, then scheme name (:class:`EnvelopeSchemaError`);
    3. structure, with every count/size checked against its ceiling and the
       remaining data *before* the corresponding allocation
       (:class:`EnvelopeCapError` / :class:`EnvelopeTruncatedError`);
    4. the trailing checksum, last (:class:`EnvelopeChecksumError`) — a
       hostile sender can compute a valid checksum over an over-cap
       body, so caps must not hide behind it.

    No field arithmetic, NTT, or commitment work happens on any path
    through this function.
    """
    data = bytes(data)
    if len(data) > MAX_ENVELOPE_BYTES:
        raise EnvelopeCapError(
            "envelope is %d bytes (cap %d)" % (len(data), MAX_ENVELOPE_BYTES),
            size=len(data), cap=MAX_ENVELOPE_BYTES)

    schema, pos = _read_str(data, 0, "schema id")
    if schema != SCHEMA_V2:
        raise EnvelopeSchemaError("unknown envelope schema %r (expected %r)"
                                  % (schema[:64], SCHEMA_V2))
    scheme_name, pos = _read_str(data, pos, "scheme")
    if scheme_name not in KNOWN_SCHEMES:
        raise EnvelopeSchemaError("unknown scheme %r (expected one of %s)"
                                  % (scheme_name[:64],
                                     "/".join(KNOWN_SCHEMES)))
    model, pos = _read_str(data, pos, "model name")
    width_byte, pos = _read_fixed(data, pos, 1, "scalar width")
    width = width_byte[0]
    if width != SCALAR_WIDTH:
        raise EnvelopeSchemaError(
            "unknown scalar width %d (expected %d)" % (width, SCALAR_WIDTH),
            offset=pos - 1)
    vk_hash, pos = _read_fixed(data, pos, _VK_HASH_BYTES, "verifying-key hash")
    config_digest, pos = _read_fixed(data, pos, _CONFIG_DIGEST_BYTES,
                                     "config digest")

    num_cols, pos = _read_u32(data, pos, "instance column count")
    if num_cols > MAX_INSTANCE_COLUMNS:
        raise EnvelopeCapError(
            "envelope declares %d instance columns (cap %d)"
            % (num_cols, MAX_INSTANCE_COLUMNS),
            count=num_cols, cap=MAX_INSTANCE_COLUMNS)
    if num_cols == 0:
        raise EnvelopeError("envelope carries no public inputs "
                            "(zero instance columns)")
    instance: List[List[int]] = []
    total_inputs = 0
    for col_idx in range(num_cols):
        count, pos = _read_u32(data, pos,
                               "column %d value count" % col_idx)
        total_inputs += count
        if total_inputs > MAX_PUBLIC_INPUTS:
            raise EnvelopeCapError(
                "envelope declares %d public inputs through column %d "
                "(cap %d)" % (total_inputs, col_idx, MAX_PUBLIC_INPUTS),
                count=total_inputs, cap=MAX_PUBLIC_INPUTS)
        need = count * SCALAR_WIDTH
        if need > len(data) - pos:
            raise EnvelopeTruncatedError(
                "column %d promises %d scalars but only %d bytes remain"
                % (col_idx, count, len(data) - pos), offset=pos)
        col = list(struct.unpack_from("<%dQ" % count, data, pos))
        pos += need
        instance.append(col)

    proof_len, pos = _read_u32(data, pos, "proof length")
    if proof_len > MAX_PROOF_BYTES:
        raise EnvelopeCapError(
            "envelope declares a %d-byte proof (cap %d)"
            % (proof_len, MAX_PROOF_BYTES),
            size=proof_len, cap=MAX_PROOF_BYTES)
    if proof_len == 0:
        raise EnvelopeError("envelope carries empty proof bytes")
    proof_bytes, pos = _read_fixed(data, pos, proof_len, "proof bytes")

    checksum, pos = _read_fixed(data, pos, CHECKSUM_BYTES, "checksum")
    if pos != len(data):
        raise EnvelopeError("trailing bytes after envelope checksum",
                            offset=pos, length=len(data))
    expected = hashlib.blake2b(data[: len(data) - CHECKSUM_BYTES],
                               digest_size=CHECKSUM_BYTES).digest()
    if checksum != expected:
        raise EnvelopeChecksumError("envelope checksum mismatch",
                                    expected=expected.hex(),
                                    got=checksum.hex())

    return ProofEnvelope(
        scheme_name=scheme_name,
        model=model,
        vk_hash=vk_hash,
        config_digest=config_digest,
        instance=instance,
        proof_bytes=proof_bytes,
        schema=schema,
        checksum=checksum.hex(),
    )
