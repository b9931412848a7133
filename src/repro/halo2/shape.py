"""The proof's shape: what a circuit's proof holds, known before any witness.

Paper §7.4 prices a layout from counts that exist before a proof does;
this module is the one place they are derived.  :func:`arguments` is
keygen's witness-free half: the LogUp helper pairing (:func:`_fractions`),
the permutation helpers and the *extended constraint list* (user gates
plus the helper constraints, over helper advice columns and
:class:`~repro.halo2.expression.Challenge` placeholders).
:meth:`ProofShape.of` counts from that list.  Keygen keeps its result as
``vk.shape``, and the layout simulator calls the same ``of()`` on the
constraint system it declares without a witness
(:meth:`repro.compiler.physical.PhysicalLayout.shape`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.commit import fri
from repro.commit.merkle import DIGEST_BYTES
from repro.commit.scheme import Claim
from repro.field.domain import extension_for
from repro.halo2.circuit import ConstraintSystem
from repro.halo2.column import Column, ColumnType
from repro.halo2.expression import Challenge, Constant, Expression, Ref
from repro.halo2.lookup import LookupArgument
from repro.halo2.proof import MAGIC, SCALAR_WIDTH
from repro.resilience.errors import LayoutError

#: Challenge labels used by the helper arguments.
THETA, BETA, GAMMA, ALPHA = "theta", "beta", "gamma", "alpha"

#: The commit rounds, in the order a query opens their rows.
FIXED_ROUND, ADVICE_ROUND, HELPER_ROUND, QUOTIENT_ROUND = range(4)

#: The helper tape's output blocks, in row order: the compressed lookup
#: inputs and tables, the lookup helper columns' denominators, the
#: tables' and the permutation's denominators, the lookup numerators.
COMPRESSED, H_DENOMINATOR, DENOMINATOR, NUMERATOR = range(4)


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


def claim_of(col: Column, rot: int, num_advice: int,
             fixed_columns: Sequence[Column]) -> Claim:
    """The opening claim that answers a constraint's read of ``col`` at
    ``rot`` (fixed, selector and advice columns only): user advice
    columns come first in the advice space, helper columns after them."""
    if col.kind == ColumnType.ADVICE:
        if col.index < num_advice:
            return (ADVICE_ROUND, col.index, rot)
        return (HELPER_ROUND, col.index - num_advice, rot)
    return (FIXED_ROUND, fixed_columns.index(col), rot)


def _compress(exprs: Tuple[Expression, ...], theta: Expression) -> Expression:
    """Random-linear-combine a tuple of expressions with powers of theta."""
    acc: Expression = exprs[-1]
    for e in reversed(exprs[:-1]):
        acc = acc * theta + e
    return acc


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


@dataclass
class Arguments:
    """The witness-free half of keygen for one constraint system."""

    #: user gates, then every helper constraint, in fold order
    constraints: List[Tuple[str, Expression]]
    lookups: List[LookupHelpers]
    permutation: Optional[PermutationData]
    #: phase 2's vectors in evaluation order, tagged with their output
    #: blocks (see ``keygen._compile_tapes``)
    stores: List[Tuple[int, Expression]]
    #: the first-row indicator, a fixed column keygen fills
    l0_col: Column
    #: the fixed round's columns (fixed, then selector), in tree order
    fixed_columns: Tuple[Column, ...]
    #: helper advice columns, numbered after the user advice
    num_helper_advice: int


def arguments(cs: ConstraintSystem) -> Arguments:
    """Allocate the helper columns beyond the user column space and build
    the extended constraint list.

    Lookups are grouped by table (structural equality of the table
    expressions, first-appearance order) and paired within a table
    (:func:`_fractions`): each helper column h proves the weighted
    fractions ``sum_i q_i/(alpha + f_i)`` of its one or two lookups; the
    table's running sum then accumulates ``sum h - m/(alpha + t)`` with
    ONE multiplicity column.  A pair never raises the circuit's degree.
    Each permuted column gets an id and a sigma fixed column and one
    helper; one running sum closes the argument.
    """
    next_advice = cs.num_advice
    next_fixed = cs.num_fixed

    def new_advice() -> Column:
        nonlocal next_advice
        next_advice += 1
        return Column(ColumnType.ADVICE, next_advice - 1)

    def new_fixed() -> Column:
        nonlocal next_fixed
        next_fixed += 1
        return Column(ColumnType.FIXED, next_fixed - 1)

    l0_col = new_fixed()
    l0 = Ref(l0_col)
    constraints: List[Tuple[str, Expression]] = []
    for gate in cs.gates:
        for i, c in enumerate(gate.effective_constraints()):
            constraints.append(("%s/%d" % (gate.name, i), c))

    # ---- lookup helper constraints ----------------------------------------
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
    # each table's compressed inputs and table column; for the one batch
    # inversion every helper column's denominator, then every table's,
    # then each permuted column's id and sigma denominators; and every
    # helper column's numerator
    stores: List[Tuple[int, Expression]] = []
    for table, group_of in by_table.items():
        terms = [(lk, _compress(lk.inputs, theta)) for lk in group_of]
        fractions = _fractions(terms, alpha, bound)
        helpers = LookupHelpers(
            arguments=tuple(group_of),
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
        beta, gamma = Challenge(BETA), Challenge(GAMMA)
        # per column an id and a sigma fixed column and a helper, in turn
        id_cols, sigma_cols, helper_cols = zip(*[
            (new_fixed(), new_fixed(), new_advice()) for _ in perm_cols])
        permutation = PermutationData(
            columns=tuple(perm_cols), id_cols=id_cols, sigma_cols=sigma_cols,
            helper_cols=helper_cols, sum_col=new_advice())
        total_h: Expression = Constant(0)
        for col, id_col, sigma_col, h_col in zip(
            perm_cols, id_cols, sigma_cols, helper_cols
        ):
            v = Ref(col)
            d_id = gamma + v + beta * Ref(id_col)
            d_sigma = gamma + v + beta * Ref(sigma_col)
            stores += [(DENOMINATOR, d_id), (DENOMINATOR, d_sigma)]
            h = Ref(h_col)
            constraints.append(("perm:%r/inverse" % col,
                                h * d_id * d_sigma - d_sigma + d_id))
            total_h = total_h + h
        s = Ref(permutation.sum_col)
        constraints.append(("perm/sum",
                            Ref(permutation.sum_col, 1) - s - total_h))
        constraints.append(("perm/init", l0 * s))

    fixed_columns = tuple(
        [Column(ColumnType.FIXED, i) for i in range(next_fixed)]
        + [Column(ColumnType.SELECTOR, i) for i in range(cs.num_selectors)])
    return Arguments(constraints=constraints, lookups=lookups,
                     permutation=permutation, stores=stores, l0_col=l0_col,
                     fixed_columns=fixed_columns,
                     num_helper_advice=next_advice - cs.num_advice)


@dataclass(frozen=True)
class ProofShape:
    """Every count a proof of one circuit has, before any witness.

    The fields are what the constraint system fixes; the rest derives
    from them.  The operation counts are what one ``create_proof``
    performs (``STATS``): ``ntt_base`` counts base transforms *before*
    the prover skips all-zero columns (observed ``ntt_base +
    sparsity_skips``), and ``ntt_extended`` counts each fixed column the
    quotient reads as the transform the key's LDE replaces.
    """

    k: int
    max_degree: int
    #: columns per commit round: fixed, advice, helper, quotient
    round_widths: Tuple[int, int, int, int]
    #: every evaluation a proof claims, in wire order: each committed
    #: column a constraint reads at ``omega^rot x``, plus the quotient
    #: pieces at ``x``, sorted by rotation, then round, then column
    claims: Tuple[Claim, ...]
    #: instance columns the constraints read (extended for the quotient)
    instance_reads: int
    #: lookup arguments (one multiplicity pass each)
    lookups: int

    @classmethod
    def of(cls, cs: ConstraintSystem, k: int,
           args: Optional[Arguments] = None) -> "ProofShape":
        """The shape of a ``2^k``-row proof of ``cs``; ``args`` is
        :func:`arguments` of ``cs`` when the caller holds it already."""
        args = args if args is not None else arguments(cs)
        max_degree = max([expr.degree() for _, expr in args.constraints] + [2])
        refs = {ref for _, expr in args.constraints for ref in expr.refs()}
        claims = {claim_of(col, rot, cs.num_advice, args.fixed_columns)
                  for col, rot in refs if col.kind != ColumnType.INSTANCE}
        claims.update((QUOTIENT_ROUND, j, 0) for j in range(max_degree - 1))
        return cls(
            k=k, max_degree=max_degree,
            round_widths=(len(args.fixed_columns), cs.num_advice,
                          args.num_helper_advice, max_degree - 1),
            claims=tuple(sorted(claims, key=lambda c: (c[2], c[0], c[1]))),
            instance_reads=len({col for col, _ in refs
                                if col.kind == ColumnType.INSTANCE}),
            lookups=len(cs.lookups))

    @property
    def extension(self) -> int:
        return extension_for(self.max_degree)

    @property
    def quotient_pieces(self) -> int:
        return self.round_widths[QUOTIENT_ROUND]

    # -- the opening: what the verifier's structural check compares -----------

    @property
    def round_roots(self) -> int:
        """The proof's nonempty rounds (the fixed root is the key's)."""
        return sum(1 for w in self.round_widths[ADVICE_ROUND:] if w)

    @property
    def final_len(self) -> int:
        return fri.final_len(self.k)

    @property
    def queries(self) -> int:
        return fri.FRI_QUERIES

    @property
    def row_widths(self) -> List[int]:
        """Values per opened row, one row per nonempty round."""
        return [2 * w for w in self.round_widths if w]

    @property
    def row_path_depth(self) -> int:
        # a leaf pairs the extended positions z and -z
        return self.k + self.extension.bit_length() - 2

    @property
    def fold_path_depths(self) -> List[int]:
        """Path nodes per committed fold layer (layers ``1 .. folds-1``)."""
        return [self.row_path_depth - i
                for i in range(1, fri.num_folds(self.k))]

    # -- what one proof performs ------------------------------------------------

    @property
    def ntt_base(self) -> int:
        """Advice, helper and the public columns the quotient reads."""
        widths = self.round_widths
        return widths[ADVICE_ROUND] + widths[HELPER_ROUND] + self.instance_reads

    @property
    def ntt_extended(self) -> int:
        """``ntt_base``'s extensions, the fixed columns the quotient
        reads, its interpolation and its pieces' extensions."""
        fixed_reads = len({c[:2] for c in self.claims if c[0] == FIXED_ROUND})
        return self.ntt_base + fixed_reads + 1 + self.quotient_pieces

    @property
    def commitments(self) -> int:
        return sum(self.round_widths[ADVICE_ROUND:])

    @property
    def _tree_depths(self) -> List[int]:
        """Every tree a proof builds: one per round, one per fold layer."""
        return [self.row_path_depth] * self.round_roots + self.fold_path_depths

    @property
    def merkle_leaf_hashes(self) -> int:
        return sum(1 << depth for depth in self._tree_depths)

    @property
    def merkle_node_hashes(self) -> int:
        return sum((1 << depth) - 1 for depth in self._tree_depths)

    @property
    def proof_bytes(self) -> int:
        """``len(proof_to_bytes(proof))``: the header with its eight counts
        and the query shape, the roots, claimed evaluations, fold-layer
        roots, final polynomial, then every query's rows and pairs."""
        rows, folds = self.row_widths, self.fold_path_depths
        query = (sum(SCALAR_WIDTH * w + DIGEST_BYTES * self.row_path_depth
                     for w in rows)
                 + sum(2 * SCALAR_WIDTH + DIGEST_BYTES * d for d in folds))
        return (len(MAGIC) + 1 + 4 * (8 + len(rows) + len(folds))
                + DIGEST_BYTES * (self.round_roots + len(folds))
                + SCALAR_WIDTH * (len(self.claims) + self.final_len)
                + self.queries * query)

    def as_dict(self) -> Dict[str, object]:
        """The shape as ``zkml inspect --json`` prints it."""
        out = {name: getattr(self, name) for name in (
            "k", "max_degree", "extension", "final_len", "queries",
            "ntt_base", "ntt_extended", "commitments", "merkle_leaf_hashes",
            "merkle_node_hashes", "proof_bytes")}
        return dict(out, round_widths=list(self.round_widths),
                    claims=len(self.claims), folds=fri.num_folds(self.k))
