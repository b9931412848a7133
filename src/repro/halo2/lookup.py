"""Lookup argument (log-derivative / LogUp flavour, weighted).

A lookup enforces that on every row where its selector ``q`` is on, the
tuple of *input* expressions is contained in the set of *table* tuples
(paper §3, Table 1).  Rows where ``q`` is off are not constrained: their
inputs may hold anything, in the table or not.  A lookup without a
selector reads every row (``q = 1``).

Soundness sketch (Haböck's LogUp with weighted fractions, ePrint
2022/1530, Lemma 5): with tuple-compression challenge theta and shift
alpha, for the lookups ``f_1 .. f_L`` with selectors ``q_1 .. q_L`` that
read one table ``t``,
    sum_i sum_rows q_i/(alpha + f_i)  ==  sum_rows m/(alpha + t)
holds as an identity in alpha iff, for every value ``v``, the weights of
the rows with ``f_i = v`` sum to the ``m`` of the table rows holding
``v``.  The weights are 0/1 selector columns fixed in the verifying key,
so a value outside the table carries a positive integer weight of at
most ``L * 2^k``, far below the field characteristic: its pole cannot
cancel, and Lemma 5 holds as for unit numerators.  A numerator the
prover could choose (an advice column, or any value but 0/1) would let
weights cancel mod p, so keygen accepts only selector columns.

Keygen groups lookups by their table expressions and, within a table,
pairs them in declaration order: one helper column ``h`` holds
``q_i/(alpha + f_i) + q_j/(alpha + f_j)``, proven by
``h (alpha + f_i)(alpha + f_j) - q_i (alpha + f_j) - q_j (alpha + f_i) =
0``; an odd lookup out keeps ``h (alpha + f) - q = 0``.  On a row
where both selectors are off the constraint forces ``h = 0``.  A pair is
formed only when its constraint's degree stays within the degree the
circuit has without pairing: a pair of degree-1 inputs is degree 3,
which every zoo circuit already has (its permutation argument is degree
3), while a circuit of degree 2 keeps one column per lookup.  Per table, one multiplicity column ``m`` and one running sum
``s`` prove ``(s(wX) - s(X) - sum h) * (alpha + t) + m = 0`` and
``l0 * s = 0``: ``ceil(L/2) + 2`` helper columns per table, or
``sum_j ceil(L_j/2) + 2T`` for ``T`` tables.  halo2 proper spends three
FFT-relevant columns per lookup at degree ``input_degree + 2`` — the
accounting the paper's Eq. (2), and so the optimizer's cost model,
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.halo2.column import Column
from repro.halo2.expression import Constant, Expression, Ref


@dataclass(frozen=True)
class LookupArgument:
    """A named lookup of input expressions into table expressions, on
    the rows where ``selector`` is on (every row when it is ``None``)."""

    name: str
    inputs: Tuple[Expression, ...]
    table: Tuple[Expression, ...]
    selector: Optional[Column] = None

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.table):
            raise ValueError(
                "lookup %r: %d input expressions vs %d table expressions"
                % (self.name, len(self.inputs), len(self.table))
            )
        if not self.inputs:
            raise ValueError("lookup %r has no expressions" % self.name)

    def numerator(self) -> Expression:
        """The lookup's LogUp weight ``q``: its selector, or 1."""
        return Constant(1) if self.selector is None else Ref(self.selector)

    def input_degree(self) -> int:
        return max(e.degree() for e in self.inputs)

    def table_degree(self) -> int:
        return max(e.degree() for e in self.table)
