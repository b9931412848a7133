"""Batched scalar absorption: framing, determinism, and domain separation."""

import numpy as np
import pytest

from repro.commit.transcript import Transcript
from repro.field import GOLDILOCKS

F = GOLDILOCKS


def test_vector_equals_explicit_framing():
    scalars = [0, 1, 12345, F.p - 1]
    t1 = Transcript(F)
    t1.append_scalar_vector(b"col", scalars)
    payload = len(scalars).to_bytes(8, "little") + b"".join(
        s.to_bytes(32, "little") for s in scalars
    )
    t2 = Transcript(F)
    t2.append_message(b"col", payload)
    assert t1.challenge_scalar(b"c") == t2.challenge_scalar(b"c")


def test_vector_differs_from_per_scalar_loop():
    scalars = [7, 8, 9]
    batched = Transcript(F)
    batched.append_scalar_vector(b"col", scalars)
    loop = Transcript(F)
    for s in scalars:
        loop.append_scalar(b"col", s)
    assert batched.challenge_scalar(b"c") != loop.challenge_scalar(b"c")


def test_length_prefix_prevents_concatenation_ambiguity():
    t1 = Transcript(F)
    t1.append_scalar_vector(b"col", [1, 2])
    t1.append_scalar_vector(b"col", [3])
    t2 = Transcript(F)
    t2.append_scalar_vector(b"col", [1])
    t2.append_scalar_vector(b"col", [2, 3])
    assert t1.challenge_scalar(b"c") != t2.challenge_scalar(b"c")


def test_empty_vector_is_absorbed():
    t1 = Transcript(F)
    t1.append_scalar_vector(b"col", [])
    t2 = Transcript(F)
    assert t1.challenge_scalar(b"c") != t2.challenge_scalar(b"c")


def vector_payload(scalars):
    """What ``append_scalar_vector`` hands ``append_message``."""
    seen = []
    t = Transcript(F)
    t.append_message = lambda label, message: seen.append((label, message))
    t.append_scalar_vector(b"col", scalars)
    (label, message), = seen
    assert label == b"col"
    return message


@pytest.mark.parametrize("scalars", [
    [0, 1, F.p - 1, F.p, F.p + 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
    [],
    [np.uint64(F.p - 1), np.int64(7), True],
    np.array([3, 1 << 63, (1 << 64) - 1], dtype=np.uint64),
])
def test_payload_is_the_per_scalar_to_bytes(scalars):
    want = len(scalars).to_bytes(8, "little") + b"".join(
        int(s).to_bytes(32, "little") for s in scalars)
    assert vector_payload(scalars) == want


@pytest.mark.parametrize("bad", [-1, 1 << 64, 1 << 200, np.int64(-1)])
def test_values_the_wire_cannot_carry_raise(bad):
    with pytest.raises(OverflowError):
        vector_payload([5, bad])
