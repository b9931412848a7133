"""Finite-field substrate: the Goldilocks field, its kernels, NTT domains.

The paper's halo2 backend works over the scalar field of a 254-bit
pairing curve; this prover works over Goldilocks (2^64 - 2^32 + 1) only.  Its residues fit one
machine word, so every column is a numpy ``uint64`` array run through the
kernels in :mod:`repro.field.gl64` (one compiled C kernel, built with
``cc`` at first use), and its two-adicity of 32 covers every circuit
size the optimizer considers.  Scalars are plain Python ints in
``[0, p)``; :data:`GOLDILOCKS` supplies their operations, and
:func:`require_goldilocks` refuses any other :class:`PrimeField`.
"""

from repro.field.prime_field import GOLDILOCKS, PrimeField, require_goldilocks
from repro.field.domain import EvaluationDomain
from repro.field.vector import GL64Backend

__all__ = [
    "GOLDILOCKS",
    "PrimeField",
    "require_goldilocks",
    "EvaluationDomain",
    "GL64Backend",
]
