"""A from-scratch Plonkish proving system (the paper's halo2 substrate).

Circuits are 2^k-row grids of field elements constrained three ways
(paper §3, Table 1):

1. *Polynomial constraints* (custom gates): an arbitrary polynomial over
   the cells of a row, gated by a selector, must vanish on every row.
2. *Copy constraints*: arbitrary cells of the grid must be equal,
   enforced with a permutation argument.
3. *Lookup constraints*: a tuple of cells must appear in a table,
   enforced with a log-derivative (LogUp) argument.

The prover follows the halo2 recipe: commit to the witness columns,
derive Fiat–Shamir challenges, build the permutation/lookup helper
columns, fold every constraint with a challenge ``y``, divide by the
vanishing polynomial on an extended coset to get the quotient, commit to
its pieces, then open everything at a random point.  The verifier replays
the transcript and checks the folded constraint identity at that point
(:func:`repro.halo2.verifier.verify_proof_strict`).
"""

import importlib

from repro.halo2.column import Column, ColumnType
from repro.halo2.expression import Constant, Expression, Ref
from repro.halo2.gate import Gate
from repro.halo2.lookup import LookupArgument
from repro.halo2.circuit import Assignment, ConstraintSystem
# eager on purpose: importing the submodule repro.halo2.keygen sets this
# package's ``keygen`` attribute to the module, so only an import here,
# after that, leaves ``from repro.halo2 import keygen`` the function
from repro.halo2.keygen import ProvingKey, VerifyingKey, keygen
from repro.halo2.proof import Proof, proof_from_bytes, proof_to_bytes

#: Names resolved on first use, so a process that only verifies never
#: loads the prover or the mock prover.
_LAZY = {
    "create_proof": "repro.halo2.prover",
    "MockProver": "repro.halo2.mock",
    "VerifyFailure": "repro.halo2.mock",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "Column",
    "ColumnType",
    "Constant",
    "Expression",
    "Ref",
    "Gate",
    "LookupArgument",
    "ConstraintSystem",
    "Assignment",
    "keygen",
    "ProvingKey",
    "VerifyingKey",
    "MockProver",
    "VerifyFailure",
    "Proof",
    "proof_to_bytes",
    "proof_from_bytes",
    "create_proof",
]
