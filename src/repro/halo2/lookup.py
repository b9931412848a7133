"""Lookup argument (log-derivative / LogUp flavour).

A lookup enforces that on every row the tuple of *input* expressions is
contained in the set of *table* tuples (paper §3, Table 1).  Rows where a
gadget is inactive must therefore evaluate to some tuple that is in the
table; gadgets arrange an all-zero default row in each table.

Soundness sketch (Haböck's LogUp, ePrint 2022/1530, Lemma 5): with
tuple-compression challenge theta and shift alpha, for the lookups
``f_1 .. f_L`` that read one table ``t``,
    sum_i sum_rows 1/(alpha + f_i)  ==  sum_rows m/(alpha + t)
holds as an identity in alpha iff every compressed input occurs in the
table and ``m`` counts, per table row, the hits of *all* ``L`` lookups
together (``L * 2^k`` is far below the field characteristic).  Keygen
therefore groups lookups by their table expressions and the prover
materializes, per lookup, one inverse column ``h_i`` with
``h_i * (alpha + f_i) - 1 = 0`` and, per table, one multiplicity column
``m`` and one running sum ``s`` with
``(s(wX) - s(X) - sum_i h_i) * (alpha + t) + m = 0`` and ``l0 * s = 0``:
``L + 2T`` helper columns for ``L`` lookups into ``T`` tables, and
constraint degree ``1 + input_degree`` (3 for selector-gated inputs).
halo2 proper spends three FFT-relevant columns per lookup at degree
``input_degree + 2`` — the accounting the paper's Eq. (2), and so the
optimizer's cost model, keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.halo2.expression import Expression


@dataclass(frozen=True)
class LookupArgument:
    """A named lookup of input expressions into table expressions."""

    name: str
    inputs: Tuple[Expression, ...]
    table: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.table):
            raise ValueError(
                "lookup %r: %d input expressions vs %d table expressions"
                % (self.name, len(self.inputs), len(self.table))
            )
        if not self.inputs:
            raise ValueError("lookup %r has no expressions" % self.name)

    def arity(self) -> int:
        return len(self.inputs)

    def input_degree(self) -> int:
        return max(e.degree() for e in self.inputs)

    def table_degree(self) -> int:
        return max(e.degree() for e in self.table)
