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
  and :class:`~repro.halo2.expression.Challenge` placeholders.  Prover and
  verifier fold this list in the same order with the challenge ``y``;
- the prover's two register tapes (:mod:`repro.halo2.tape`): that fold,
  and phase 2's compressed lookup columns, denominators and numerators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.commit import fri
from repro.commit.scheme import (
    COMMITMENT_BYTES,
    SCALAR_BYTES,
    Claim,
    CommitmentScheme,
    CommittedRound,
)
from repro.field.domain import EvaluationDomain
from repro.field.prime_field import PrimeField
from repro.halo2.circuit import Assignment, ConstraintSystem
from repro.halo2.column import KINDS, Column, ColumnType
from repro.halo2.expression import (
    Challenge,
    Constant,
    Expression,
    Ref,
    expression_digest,
)
from repro.halo2.lookup import LookupArgument
from repro.halo2.tape import INSTANCE, Slot, Tape, compile_fold, compile_stores
from repro.obs.trace import get_tracer
from repro.resilience.errors import LayoutError

#: Challenge labels used by the helper arguments.
THETA, BETA, GAMMA, ALPHA = "theta", "beta", "gamma", "alpha"

#: The commit rounds, in the order a query opens their rows.
FIXED_ROUND, ADVICE_ROUND, HELPER_ROUND, QUOTIENT_ROUND = range(4)


@dataclass(frozen=True)
class LookupHelpers:
    """Helper advice columns for one lookup *table*.

    The arguments reading the table share helper columns in declaration
    order: ``h_cols[i]`` holds the weighted fractions of the one or two
    arguments ``groups[i]``.  The multiplicity and running-sum columns
    are shared: ``ceil(L/2) + 2`` columns for ``L`` paired lookups, and
    ``sum_j ceil(L_j/2) + 2T`` over ``T`` tables.
    """

    arguments: Tuple[LookupArgument, ...]
    groups: Tuple[Tuple[LookupArgument, ...], ...]
    h_cols: Tuple[Column, ...]
    m_col: Column
    s_col: Column

    @property
    def table(self) -> Tuple[Expression, ...]:
        return self.arguments[0].table


@dataclass(frozen=True)
class PermutationData:
    """Permutation argument layout: one helper per permuted column + sum."""

    columns: Tuple[Column, ...]
    id_cols: Tuple[Column, ...]
    sigma_cols: Tuple[Column, ...]
    helper_cols: Tuple[Column, ...]
    sum_col: Column


@dataclass
class VerifyingKey:
    """Everything the verifier needs (all of it public)."""

    field: PrimeField
    k: int
    cs: ConstraintSystem
    scheme_name: str
    domain: EvaluationDomain
    max_degree: int
    #: The fixed round's columns (fixed, then selector), in tree order.
    fixed_columns: Tuple[Column, ...]
    #: Merkle root of the fixed round.
    fixed_root: bytes
    l0_col: Column
    lookups: List[LookupHelpers]
    permutation: Optional[PermutationData]
    constraints: List[Tuple[str, Expression]]
    advice_queries: List[Tuple[Column, int]]
    num_helper_advice: int
    _digest: bytes = dc_field(default=b"", repr=False)

    @property
    def n(self) -> int:
        return 1 << self.k

    @property
    def num_quotient_pieces(self) -> int:
        return self.max_degree - 1

    @property
    def round_widths(self) -> Tuple[int, int, int, int]:
        """Columns per commit round (fixed, advice, helper, quotient)."""
        return (len(self.fixed_columns), self.cs.num_advice,
                self.num_helper_advice, self.num_quotient_pieces)

    def claim_of(self, col: Column, rot: int) -> Claim:
        """The opening claim that answers a constraint's read of
        ``col`` at ``rot`` (fixed, selector and advice columns only)."""
        if col.kind == ColumnType.ADVICE:
            if col.index < self.cs.num_advice:
                return (ADVICE_ROUND, col.index, rot)
            return (HELPER_ROUND, col.index - self.cs.num_advice, rot)
        return (FIXED_ROUND, self.fixed_columns.index(col), rot)

    @property
    def claims(self) -> List[Claim]:
        """Every evaluation a proof claims, in wire order: each committed
        column read by a constraint at ``omega^rot x`` plus the quotient
        pieces at ``x``, sorted by rotation, then round, then column."""
        cached = getattr(self, "_claims", None)
        if cached is None:
            found = {
                self.claim_of(col, rot)
                for _, expr in self.constraints
                for col, rot in expr.refs()
                if col.kind != ColumnType.INSTANCE
            }
            found.update((QUOTIENT_ROUND, j, 0)
                         for j in range(self.num_quotient_pieces))
            cached = sorted(found, key=lambda c: (c[2], c[0], c[1]))
            self._claims = cached
        return cached

    def digest(self) -> bytes:
        """A binding digest of the preprocessed circuit: its shape, the
        fixed round's root, the opening parameters and every constraint."""
        if not self._digest:
            h = hashlib.blake2b(digest_size=32)
            h.update(b"vk:%d:%d:%s:%d" % (self.k, self.max_degree,
                                          self.scheme_name.encode(),
                                          self.field.p))
            h.update(b"opening:%d:%d:%d" % (self.domain.extension,
                                            fri.FRI_QUERIES,
                                            fri.FRI_FINAL_LEN))
            h.update(b"columns:%d:%d:%d:%r" % (
                self.cs.num_advice, self.num_helper_advice,
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
        pieces = self.num_quotient_pieces
        return (
            COMMITMENT_BYTES * (self.cs.num_advice + self.num_helper_advice
                                + pieces)
            + SCALAR_BYTES * (len(self.advice_queries) + pieces)
            + scheme.opening_proof_bytes(self.k)
        )


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


def _compress(exprs: Tuple[Expression, ...], theta: Expression) -> Expression:
    """Random-linear-combine a tuple of expressions with powers of theta."""
    acc: Expression = exprs[-1]
    for e in reversed(exprs[:-1]):
        acc = acc * theta + e
    return acc


#: The helper tape's output blocks, in row order: the compressed lookup
#: inputs and tables, the lookup helper columns' denominators, the
#: tables' and the permutation's denominators, the lookup numerators.
COMPRESSED, H_DENOMINATOR, DENOMINATOR, NUMERATOR = range(4)


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
        return vk.claim_of(col, 0)[:2]

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


def _fractions(terms: List[Tuple[LookupArgument, Expression]],
               alpha: Expression, bound: int) -> List[tuple]:
    """Pair one table's lookups, in declaration order, into helper
    columns: ``(group, denominator, numerator)`` per column.

    ``terms`` holds each lookup with its compressed input ``f``.  Two
    lookups share a column when ``h (alpha + f_i)(alpha + f_j) - q_i
    (alpha + f_j) - q_j (alpha + f_i)`` stays within degree ``bound``;
    otherwise the first keeps ``h (alpha + f) - q`` to itself.
    """
    out = []
    for lk, f in terms:
        d, q = alpha + f, lk.numerator()
        if out and len(out[-1][0]) == 1:
            (lk0,), d0, q0 = out[-1]
            den, num = d0 * d, q0 * d + q * d0
            if max(1 + den.degree(), num.degree()) <= bound:
                out[-1] = ((lk0, lk), den, num)
                continue
        out.append(((lk,), d, q))
    return out


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

    # ---- allocate helper columns beyond the user column space -------------
    next_advice = cs.num_advice
    next_fixed = cs.num_fixed

    def new_advice() -> Column:
        nonlocal next_advice
        col = Column(ColumnType.ADVICE, next_advice)
        next_advice += 1
        return col

    def new_fixed() -> Column:
        nonlocal next_fixed
        col = Column(ColumnType.FIXED, next_fixed)
        next_fixed += 1
        return col

    # the key owns a copy of the fixed grid, not a view synthesis can write
    fixed_evals: Dict[Column, np.ndarray] = {}
    for i, values in enumerate(assignment.fixed.copy()):
        fixed_evals[Column(ColumnType.FIXED, i)] = values
    for i, values in enumerate(assignment.selectors):
        fixed_evals[Column(ColumnType.SELECTOR, i)] = values

    l0_col = new_fixed()
    fixed_evals[l0_col] = np.zeros(n, dtype=np.uint64)
    fixed_evals[l0_col][0] = 1
    l0 = Ref(l0_col)

    constraints: List[Tuple[str, Expression]] = []
    for gate in cs.gates:
        for i, c in enumerate(gate.effective_constraints()):
            constraints.append(("%s/%d" % (gate.name, i), c))

    # ---- lookup helper constraints ----------------------------------------
    # Lookups are grouped by table (structural equality of the table
    # expressions, first-appearance order) and paired within a table
    # (_fractions): each helper column h proves the weighted fractions
    # sum_i q_i/(alpha + f_i) of its one or two lookups; the table's
    # running sum then accumulates sum h - m/(alpha + t) with ONE
    # multiplicity column.  A pair never raises the circuit's degree.
    theta, alpha = Challenge(THETA), Challenge(ALPHA)
    bound = cs.max_degree()
    by_table: Dict[Tuple[Expression, ...], List[LookupArgument]] = {}
    for lk in cs.lookups:
        if lk.selector is not None and lk.selector.kind != ColumnType.SELECTOR:
            # a numerator the prover can set lets weights cancel mod p
            raise LayoutError(
                "lookup %r is weighted by %r; a LogUp numerator must be a "
                "selector column (0/1, fixed in the key)"
                % (lk.name, lk.selector),
                phase="keygen", lookup=lk.name)
        by_table.setdefault(lk.table, []).append(lk)
    lookups: List[LookupHelpers] = []
    # phase 2's vectors in evaluation order, tagged with their output
    # blocks (see _compile_tapes): each table's compressed inputs and
    # table column; for the one batch inversion every helper column's
    # denominator, then every table's, then each permuted column's id
    # and sigma denominators; and every helper column's numerator
    stores: List[Tuple[int, Expression]] = []
    for table, arguments in by_table.items():
        terms = [(lk, _compress(lk.inputs, theta)) for lk in arguments]
        fractions = _fractions(terms, alpha, bound)
        helpers = LookupHelpers(
            arguments=tuple(arguments),
            groups=tuple(group for group, _, _ in fractions),
            h_cols=tuple(new_advice() for _ in fractions),
            m_col=new_advice(),
            s_col=new_advice(),
        )
        s = Ref(helpers.s_col)
        step = Ref(helpers.s_col, 1) - s  # minus every h, below
        f_of = dict(terms)
        for (group, den, num), h_col in zip(fractions, helpers.h_cols):
            h = Ref(h_col)
            stores += [(COMPRESSED, f_of[lk]) for lk in group]
            stores += [(H_DENOMINATOR, den), (NUMERATOR, num)]
            constraints.append((
                "lookup:%s/fraction" % ",".join(lk.name for lk in group),
                h * den - num))
            step = step - h
        name = "table:%d" % len(lookups)
        t = _compress(table, theta)
        d_t = alpha + t
        stores += [(COMPRESSED, t), (DENOMINATOR, d_t)]
        constraints.append(("%s/sum" % name, step * d_t + Ref(helpers.m_col)))
        constraints.append(("%s/init" % name, l0 * s))
        lookups.append(helpers)

    # ---- permutation helper constraints ------------------------------------
    permutation: Optional[PermutationData] = None
    perm_cols = cs.permuted_columns()
    if perm_cols:
        with tracer.span("keygen:permutation", columns=len(perm_cols),
                         copies=len(assignment.copies)):
            ids, sigmas = _build_permutation_tags(assignment, perm_cols)
        beta, gamma = Challenge(BETA), Challenge(GAMMA)
        id_cols, sigma_cols, helper_cols = [], [], []
        for j, col in enumerate(perm_cols):
            id_col, sigma_col = new_fixed(), new_fixed()
            fixed_evals[id_col] = ids[j]
            fixed_evals[sigma_col] = sigmas[j]
            id_cols.append(id_col)
            sigma_cols.append(sigma_col)
            helper_cols.append(new_advice())
        sum_col = new_advice()
        permutation = PermutationData(
            columns=tuple(perm_cols),
            id_cols=tuple(id_cols),
            sigma_cols=tuple(sigma_cols),
            helper_cols=tuple(helper_cols),
            sum_col=sum_col,
        )
        total_h: Expression = Constant(0)
        for col, id_col, sigma_col, h_col in zip(
            perm_cols, id_cols, sigma_cols, helper_cols
        ):
            v = Ref(col)
            d_id = gamma + v + beta * Ref(id_col)
            d_sigma = gamma + v + beta * Ref(sigma_col)
            stores += [(DENOMINATOR, d_id), (DENOMINATOR, d_sigma)]
            h = Ref(h_col)
            constraints.append(
                (
                    "perm:%r/inverse" % col,
                    h * d_id * d_sigma - d_sigma + d_id,
                )
            )
            total_h = total_h + h
        s = Ref(sum_col)
        s_next = Ref(sum_col, 1)
        constraints.append(("perm/sum", s_next - s - total_h))
        constraints.append(("perm/init", l0 * s))

    max_degree = max([expr.degree() for _, expr in constraints] + [2])
    domain = EvaluationDomain(field, assignment.k, max_degree=max_degree)

    for col, values in fixed_evals.items():
        # read-only uint64 columns: the prover reads them without
        # converting and the pk cache checksums them in place on every hit
        values = domain.backend.from_ints(values)
        values.flags.writeable = False
        fixed_evals[col] = values
    fixed_columns = tuple(
        sorted(fixed_evals, key=lambda c: (c.kind.value, c.index)))
    with tracer.span("keygen:fixed_polys", columns=len(fixed_evals),
                     max_degree=max_degree):
        fixed_polys = domain.lagrange_to_coeff_batch(
            [fixed_evals[col] for col in fixed_columns])
    with tracer.span("keygen:fixed_round", columns=len(fixed_columns)):
        # the quotient reads this LDE on every proof; the pk cache
        # carries it (and the tree the queries open) into later proves
        fixed_round = scheme.commit_round(domain, domain.lde(fixed_polys))

    advice_queries = sorted(
        {
            (col, rot)
            for _, expr in constraints
            for col, rot in expr.refs()
            if col.kind == ColumnType.ADVICE
        },
        key=lambda q: (q[0].index, q[1]),
    )

    vk = VerifyingKey(
        field=field,
        k=assignment.k,
        cs=cs,
        scheme_name=scheme.name,
        domain=domain,
        max_degree=max_degree,
        fixed_columns=fixed_columns,
        fixed_root=fixed_round.root,
        l0_col=l0_col,
        lookups=lookups,
        permutation=permutation,
        constraints=constraints,
        advice_queries=advice_queries,
        num_helper_advice=next_advice - cs.num_advice,
    )
    with tracer.span("keygen:tapes", constraints=len(constraints)):
        quotient_tape, helper_tape = _compile_tapes(vk, stores)
    pk = ProvingKey(vk=vk, fixed_evals=fixed_evals, fixed_polys=fixed_polys,
                    fixed_round=fixed_round, quotient_tape=quotient_tape,
                    helper_tape=helper_tape)
    return pk, vk
