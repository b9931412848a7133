"""Fiat–Shamir transcript.

Prover and verifier both run a transcript; as long as they absorb the same
messages in the same order they derive identical challenges, which is what
makes the proof non-interactive.  We hash with blake2b and derive field
elements by rejection-free reduction (the bias from reducing a 512-bit
digest mod a <=256-bit prime is negligible).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.field.prime_field import PrimeField
from repro.obs.stats import STATS


class Transcript:
    """An absorb/squeeze transcript over a prime field."""

    def __init__(self, field: PrimeField, label: bytes = b"zkml"):
        self.field = field
        self._state = hashlib.blake2b(label).digest()
        self._counter = 0

    def _absorb(self, data: bytes) -> None:
        STATS.transcript_absorbs += 1
        self._state = hashlib.blake2b(self._state + data).digest()

    def append_message(self, label: bytes, message: bytes) -> None:
        """Absorb an arbitrary byte string under a domain-separation label."""
        self._absorb(b"msg:" + label + b":" + len(message).to_bytes(8, "little"))
        self._absorb(message)

    def append_scalar(self, label: bytes, scalar: int) -> None:
        """Absorb a field element."""
        self.append_message(label, scalar.to_bytes(32, "little"))

    def append_scalar_vector(self, label: bytes, scalars) -> None:
        """Absorb a whole vector of field elements as one message.

        The payload is the element count (8-byte LE) followed by the
        concatenated 32-byte LE scalars — one ``append_message`` per column
        instead of one per scalar.  Note this domain-separates differently
        from a loop of :meth:`append_scalar`, so the two are not
        interchangeable mid-protocol.
        """
        # one zeroed (len, 4) array of LE words, the scalars in word 0: the
        # same bytes as a 32-byte ``int.to_bytes`` per scalar, in one pass;
        # a value outside [0, 2^64) raises OverflowError
        words = np.zeros((len(scalars), 4), dtype="<u8")
        words[:, 0] = np.fromiter(map(int, scalars), dtype=np.uint64,
                                  count=len(scalars))
        self.append_message(label, len(scalars).to_bytes(8, "little")
                            + words.tobytes())

    def append_commitment(self, label: bytes, digest: bytes) -> None:
        """Absorb a commitment digest."""
        self.append_message(label, digest)

    def challenge_scalar(self, label: bytes) -> int:
        """Squeeze a field-element challenge."""
        STATS.challenges += 1
        self._absorb(b"chal:" + label + b":" + self._counter.to_bytes(8, "little"))
        self._counter += 1
        wide = hashlib.blake2b(self._state, digest_size=64).digest()
        return int.from_bytes(wide, "little") % self.field.p

    def challenge_nonzero(self, label: bytes) -> int:
        """Squeeze a challenge guaranteed nonzero (e.g. evaluation points)."""
        while True:
            c = self.challenge_scalar(label)
            if c != 0:
                return c
