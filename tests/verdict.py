"""The strict verifier's refusal, as one assertion for the tests that
prove and then verify.

``verify_proof_strict`` returns ``None`` or raises.  A refusal is a
:class:`ProofFormatError` (the proof's shape is not the key's) or a
clean :class:`VerificationFailure`.  It also maps a verifier *crash* to
a ``VerificationFailure``, chaining the crash as its ``__cause__``; a
test that expects a refusal must not pass on one of those.
"""

import pytest

from repro.halo2.verifier import verify_proof_strict
from repro.resilience.errors import ProofFormatError, VerificationFailure


def assert_rejected(vk, proof, instance, scheme):
    """Assert the strict verifier refuses ``proof`` without crashing;
    returns the raised error."""
    with pytest.raises((ProofFormatError, VerificationFailure)) as info:
        verify_proof_strict(vk, proof, instance, scheme)
    assert info.value.__cause__ is None, (
        "the verifier crashed: %r" % (info.value.__cause__,))
    return info.value
