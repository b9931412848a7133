"""Key generation: preprocess a circuit into proving and verifying keys.

Keygen fixes everything that does not depend on the witness:

- coefficient forms of all fixed, selector, and permutation polynomials,
  their low-degree extension, and the Merkle tree that commits to them
  (the *fixed round*; its root goes into the verifying key);
- the permutation itself (the connected components of the recorded copy
  constraints, found in one vectorized pass and turned into id/sigma tag
  polynomials);
- the *extended constraint list*: user gates plus the lookup and
  permutation helper constraints, expressed over helper advice columns
  and :class:`~repro.halo2.expression.Challenge` placeholders (the
  witness-free half, :func:`repro.halo2.shape.arguments`, which also
  gives the key its :class:`~repro.halo2.shape.ProofShape`).  Prover and
  verifier fold this list in the same order with the challenge ``y``;
- the prover's two register tapes (:mod:`repro.halo2.tape`): that fold,
  and phase 2's compressed lookup columns, denominators and numerators.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.commit import fri
from repro.commit.scheme import (
    COMMITMENT_BYTES,
    SCALAR_BYTES,
    CommitmentScheme,
    CommittedRound,
)
from repro.field.domain import EvaluationDomain
from repro.field.prime_field import PrimeField
from repro.halo2.circuit import Assignment, ConstraintSystem
from repro.halo2.column import KINDS, Column, ColumnType
from repro.halo2.expression import Expression, expression_digest
# ``LookupHelpers`` and ``PermutationData`` are also the names keys
# pickled by older builds resolve here
from repro.halo2.shape import (
    FIXED_ROUND,
    HELPER_ROUND,
    LookupHelpers,
    PermutationData,
    ProofShape,
    arguments,
    claim_of,
)
from repro.halo2.tape import INSTANCE, Slot, Tape, compile_fold, compile_stores
from repro.obs.trace import get_tracer


@dataclass
class VerifyingKey:
    """Everything the verifier needs (all of it public)."""

    field: PrimeField
    k: int
    cs: ConstraintSystem
    scheme_name: str
    domain: EvaluationDomain
    #: every count a proof of this circuit has (:mod:`repro.halo2.shape`)
    shape: ProofShape
    #: The fixed round's columns (fixed, then selector), in tree order.
    fixed_columns: Tuple[Column, ...]
    #: Merkle root of the fixed round.
    fixed_root: bytes
    l0_col: Column
    lookups: List[LookupHelpers]
    permutation: Optional[PermutationData]
    constraints: List[Tuple[str, Expression]]
    _digest: bytes = dc_field(default=b"", repr=False)

    @property
    def n(self) -> int:
        return 1 << self.k

    def __setstate__(self, state):
        # keys interned as pickle's default restore does, so a reloaded
        # key pickles to the same bytes
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        if "shape" not in state:
            # an older build's key: its degree, helper count, advice
            # queries and claims cache instead of the shape they imply
            for stale in ("max_degree", "num_helper_advice",
                          "advice_queries", "_claims"):
                self.__dict__.pop(stale, None)
            self.shape = ProofShape.of(self.cs, self.k)

    def digest(self) -> bytes:
        """A binding digest of the preprocessed circuit: its shape, the
        fixed round's root, the opening parameters and every constraint."""
        if not self._digest:
            shape = self.shape
            h = hashlib.blake2b(digest_size=32)
            h.update(b"vk:%d:%d:%s:%d" % (self.k, shape.max_degree,
                                          self.scheme_name.encode(),
                                          self.field.p))
            h.update(b"opening:%d:%d:%d" % (shape.extension, shape.queries,
                                            fri.FRI_FINAL_LEN))
            h.update(b"columns:%d:%d:%d:%r" % (
                self.cs.num_advice, shape.round_widths[HELPER_ROUND],
                self.cs.num_instance, self.fixed_columns))
            h.update(self.fixed_root)
            memo: Dict[int, bytes] = {}
            for name, expr in self.constraints:
                h.update(b"constraint:%d:" % len(name) + name.encode())
                h.update(expression_digest(expr, memo))
            self._digest = h.digest()
        return self._digest

    def modeled_proof_bytes(self, scheme: CommitmentScheme) -> int:
        """Serialized size of the equivalent real halo2 proof: one curve
        point per committed column, one scalar per opened advice or
        quotient evaluation, plus the backend's multiopen argument.
        Tables 6/7/14 report this quantity beside the real byte count."""
        opened = sum(1 for rnd, _, _ in self.shape.claims
                     if rnd != FIXED_ROUND)
        return (COMMITMENT_BYTES * self.shape.commitments
                + SCALAR_BYTES * opened + scheme.opening_proof_bytes(self.k))


@dataclass
class ProvingKey:
    """Verifying key plus the fixed data only the prover uses: the fixed
    columns in evaluation and coefficient form (the latter an ``(m, n)``
    matrix in ``vk.fixed_columns`` order), the committed fixed round and
    the compiled constraint evaluators (:mod:`repro.halo2.tape`)."""

    vk: VerifyingKey
    #: base-domain evaluations per fixed column, read-only ``uint64`` arrays
    fixed_evals: Dict[Column, np.ndarray]
    fixed_polys: np.ndarray
    fixed_round: CommittedRound
    #: every constraint, folded in ``y`` over the extended coset's parts
    quotient_tape: Tape
    #: phase 2: the compressed lookup columns, every denominator, then
    #: the lookup numerators
    helper_tape: Tape


def _compile_tapes(vk: VerifyingKey, stores: List[Tuple[int, Expression]]
                   ) -> Tuple[Tape, Tape]:
    """The quotient tape over the committed rounds, and the helper tape
    over the base-domain columns.  ``stores`` lists phase 2's vectors in
    evaluation order, each tagged with its output block; the blocks'
    rows follow each other in block order, and a block's rows are in
    the order listed."""

    def slot_of(col: Column) -> Slot:
        if col.kind == ColumnType.INSTANCE:
            return (INSTANCE, col.index)
        return claim_of(col, 0, vk.cs.num_advice, vk.fixed_columns)[:2]

    quotient = compile_fold([expr for _, expr in vk.constraints], vk.n, slot_of)
    sizes = [0] * 4
    for block, _ in stores:
        sizes[block] += 1
    next_row = [sum(sizes[:block]) for block in range(4)]
    order = []
    for block, expr in stores:
        order.append((next_row[block], expr))
        next_row[block] += 1
    return quotient, compile_stores(order, vk.n, slot_of)


def _build_permutation_tags(
    assignment: Assignment, columns: List[Column]
) -> Tuple[np.ndarray, np.ndarray]:
    """Id/sigma tag vectors, one ``int64`` row per permuted column.

    Tags are small distinct integers (slot * n + row + 1); sigma maps each
    cell to the next cell of its equality cycle, so the multiset
    {(value, id)} equals {(value, sigma)} exactly when values are constant
    along every cycle.  A cycle is a connected component of the copy
    graph, listed in ascending cell order: components come from min-label
    propagation with pointer jumping, then one stable sort of the copied
    cells by (root, cell).
    """
    n = assignment.n
    slot = np.full((len(KINDS), max(col.index for col in columns) + 1), -1,
                   dtype=np.int64)
    for j, col in enumerate(columns):
        slot[KINDS.index(col.kind), col.index] = j
    ids = np.arange(1, len(columns) * n + 1, dtype=np.int64)
    sigmas = ids.copy()
    copies = assignment.copies
    if len(copies):
        a, b = (slot[copies[:, 3 * s], copies[:, 3 * s + 1]] * n
                + copies[:, 3 * s + 2] for s in (0, 1))
        # label every cell with the least cell of its component
        label = np.arange(len(ids))
        while True:
            la, lb = label[a], label[b]
            if (la == lb).all():
                break
            np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
            while True:  # point every cell straight at its root
                up = label[label]
                if (up == label).all():
                    break
                label = up
        # the copied cells by (root, cell); sigma rotates each cycle, a
        # cell pointing at the next member
        copied = np.flatnonzero(np.bincount(np.r_[a, b], minlength=len(ids)))
        order = copied[np.argsort(label[copied], kind="stable")]
        grouped = label[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        nxt = np.r_[order[1:], 0]
        nxt[np.r_[starts[1:], len(order)] - 1] = order[starts]
        sigmas[order] = nxt + 1
    return ids.reshape(-1, n), sigmas.reshape(-1, n)


def keygen(
    cs: ConstraintSystem, assignment: Assignment, scheme: CommitmentScheme,
    tracer=None,
) -> Tuple[ProvingKey, VerifyingKey]:
    """Preprocess a circuit (with its fixed assignment) into keys.

    The ``keygen:*`` spans go to ``tracer`` (default: the process tracer).
    """
    field = cs.field
    n = assignment.n
    tracer = tracer if tracer is not None else get_tracer()
    args = arguments(cs)
    shape = ProofShape.of(cs, assignment.k, args)

    # the key owns a copy of the fixed grid, not a view synthesis can write
    fixed_evals: Dict[Column, np.ndarray] = {}
    for i, values in enumerate(assignment.fixed.copy()):
        fixed_evals[Column(ColumnType.FIXED, i)] = values
    for i, values in enumerate(assignment.selectors):
        fixed_evals[Column(ColumnType.SELECTOR, i)] = values
    fixed_evals[args.l0_col] = np.zeros(n, dtype=np.uint64)
    fixed_evals[args.l0_col][0] = 1
    perm = args.permutation
    if perm is not None:
        with tracer.span("keygen:permutation", columns=len(perm.columns),
                         copies=len(assignment.copies)):
            ids, sigmas = _build_permutation_tags(assignment,
                                                  list(perm.columns))
        fixed_evals.update(zip(perm.id_cols, ids))
        fixed_evals.update(zip(perm.sigma_cols, sigmas))

    domain = EvaluationDomain(field, assignment.k, max_degree=shape.max_degree)
    fixed_columns = args.fixed_columns
    for col in fixed_columns:
        # read-only uint64 columns: the prover reads them without
        # converting and the pk cache checksums them in place on every hit
        values = domain.backend.from_ints(fixed_evals[col])
        values.flags.writeable = False
        fixed_evals[col] = values
    with tracer.span("keygen:fixed_polys", columns=len(fixed_evals),
                     max_degree=shape.max_degree):
        fixed_polys = domain.lagrange_to_coeff_batch(
            [fixed_evals[col] for col in fixed_columns])
    with tracer.span("keygen:fixed_round", columns=len(fixed_columns)):
        # the quotient reads this LDE on every proof; the pk cache
        # carries it (and the tree the queries open) into later proves
        fixed_round = scheme.commit_round(domain, domain.lde(fixed_polys))

    vk = VerifyingKey(
        field=field,
        k=assignment.k,
        cs=cs,
        scheme_name=scheme.name,
        domain=domain,
        shape=shape,
        fixed_columns=fixed_columns,
        fixed_root=fixed_round.root,
        l0_col=args.l0_col,
        lookups=args.lookups,
        permutation=perm,
        constraints=args.constraints,
    )
    with tracer.span("keygen:tapes", constraints=len(args.constraints)):
        quotient_tape, helper_tape = _compile_tapes(vk, args.stores)
    pk = ProvingKey(vk=vk, fixed_evals=fixed_evals, fixed_polys=fixed_polys,
                    fixed_round=fixed_round, quotient_tape=quotient_tape,
                    helper_tape=helper_tape)
    return pk, vk
