"""Constraint system (circuit shape) and assignment (witness grid).

A :class:`ConstraintSystem` declares columns, gates, lookups, and which
columns participate in the permutation argument.  An :class:`Assignment`
holds the concrete 2^k-row grid of values plus the copy constraints
recorded while laying out a circuit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.field.prime_field import PrimeField
from repro.halo2.column import Column, ColumnType
from repro.halo2.expression import Expression
from repro.halo2.gate import Gate
from repro.halo2.lookup import LookupArgument

#: Degree of the permutation argument's helper constraint (see keygen).
PERMUTATION_CONSTRAINT_DEGREE = 3


class ConstraintSystem:
    """The static shape of a circuit: columns, gates, lookups, equality."""

    def __init__(self, field: PrimeField):
        self.field = field
        self.num_advice = 0
        self.num_fixed = 0
        self.num_instance = 0
        self.num_selectors = 0
        self.gates: List[Gate] = []
        self.lookups: List[LookupArgument] = []
        # a dict used as an insertion-ordered set: a pickled key must not
        # depend on the process's hash seed
        self.equality_columns: Dict[Column, None] = {}

    # -- column allocation ---------------------------------------------------

    def advice_column(self) -> Column:
        col = Column(ColumnType.ADVICE, self.num_advice)
        self.num_advice += 1
        return col

    def fixed_column(self) -> Column:
        col = Column(ColumnType.FIXED, self.num_fixed)
        self.num_fixed += 1
        return col

    def instance_column(self) -> Column:
        col = Column(ColumnType.INSTANCE, self.num_instance)
        self.num_instance += 1
        return col

    def selector(self) -> Column:
        col = Column(ColumnType.SELECTOR, self.num_selectors)
        self.num_selectors += 1
        return col

    # -- constraint declaration ------------------------------------------------

    def create_gate(
        self,
        name: str,
        constraints: Sequence[Expression],
        selector: Optional[Column] = None,
    ) -> Gate:
        gate = Gate(name=name, constraints=tuple(constraints), selector=selector)
        self.gates.append(gate)
        return gate

    def add_lookup(
        self,
        name: str,
        inputs: Sequence[Expression],
        table: Sequence[Expression],
    ) -> LookupArgument:
        lookup = LookupArgument(name=name, inputs=tuple(inputs), table=tuple(table))
        self.lookups.append(lookup)
        return lookup

    def enable_equality(self, column: Column) -> None:
        """Mark a column as participating in the permutation argument."""
        if column.kind == ColumnType.SELECTOR:
            raise ValueError("selector columns cannot carry copy constraints")
        self.equality_columns[column] = None

    # -- shape statistics (consumed by the optimizer's cost model) -------------

    def permuted_columns(self) -> List[Column]:
        """Deterministically ordered equality-enabled columns."""
        return sorted(self.equality_columns, key=lambda c: (c.kind.value, c.index))

    def gate_degree(self) -> int:
        """Maximum degree over user gates (at least 2, halo2's floor)."""
        degrees = [g.degree() for g in self.gates]
        return max(degrees + [2])

    def max_degree(self) -> int:
        """Maximum constraint degree including lookup/permutation helpers."""
        d = self.gate_degree()
        for lk in self.lookups:
            # helper constraints (keygen): h * (alpha + f) - 1 per lookup,
            # (s' - s - sum h) * (alpha + t) + m per table
            d = max(d, 1 + lk.input_degree(), 1 + lk.table_degree())
        if self.equality_columns:
            d = max(d, PERMUTATION_CONSTRAINT_DEGREE)
        return d


class Assignment:
    """A concrete 2^k-row grid of values for a constraint system.

    Cells start unassigned (None) and are treated as zero by the prover;
    the MockProver reports reads of unassigned advice cells only when a
    gate actually constrains them.
    """

    def __init__(self, cs: ConstraintSystem, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.cs = cs
        self.k = k
        self.n = 1 << k
        self.advice: List[List[Optional[int]]] = [
            [None] * self.n for _ in range(cs.num_advice)
        ]
        self.fixed: List[List[Optional[int]]] = [
            [None] * self.n for _ in range(cs.num_fixed)
        ]
        self.instance: List[List[Optional[int]]] = [
            [None] * self.n for _ in range(cs.num_instance)
        ]
        self.selectors: List[List[int]] = [
            [0] * self.n for _ in range(cs.num_selectors)
        ]
        self.copies: List[Tuple[Column, int, Column, int]] = []
        # Advice columns that ever received a nonzero value.  Synthesis
        # writes advice only through assign_advice, so a column absent
        # from this set is identically zero — the prover skips its
        # interpolation and reuses the zero-polynomial commitment.
        self._advice_nonzero: set = set()

    # -- assignment ------------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n:
            raise IndexError("row %d out of range for 2^%d rows" % (row, self.k))
        self._grow()

    def _grow(self) -> None:
        """Track columns allocated on the constraint system after init.

        Circuit builders declare gadgets (and hence selectors, fixed table
        columns, ...) lazily during synthesis; the grid grows to match.
        """
        cs = self.cs
        while len(self.advice) < cs.num_advice:
            self.advice.append([None] * self.n)
        while len(self.fixed) < cs.num_fixed:
            self.fixed.append([None] * self.n)
        while len(self.instance) < cs.num_instance:
            self.instance.append([None] * self.n)
        while len(self.selectors) < cs.num_selectors:
            self.selectors.append([0] * self.n)

    def assign_advice(self, column: Column, row: int, value: int) -> None:
        if column.kind != ColumnType.ADVICE:
            raise ValueError("expected an advice column, got %r" % column)
        self._check_row(row)
        reduced = self.cs.field.reduce(value)
        self.advice[column.index][row] = reduced
        if reduced:
            self._advice_nonzero.add(column.index)

    def assign_fixed(self, column: Column, row: int, value: int) -> None:
        if column.kind != ColumnType.FIXED:
            raise ValueError("expected a fixed column, got %r" % column)
        self._check_row(row)
        self.fixed[column.index][row] = self.cs.field.reduce(value)

    def assign_instance(self, column: Column, row: int, value: int) -> None:
        if column.kind != ColumnType.INSTANCE:
            raise ValueError("expected an instance column, got %r" % column)
        self._check_row(row)
        self.instance[column.index][row] = self.cs.field.reduce(value)

    def enable_selector(self, column: Column, row: int) -> None:
        if column.kind != ColumnType.SELECTOR:
            raise ValueError("expected a selector column, got %r" % column)
        self._check_row(row)
        self.selectors[column.index][row] = 1

    def copy(self, col_a: Column, row_a: int, col_b: Column, row_b: int) -> None:
        """Record a copy constraint between two equality-enabled cells."""
        for col in (col_a, col_b):
            if col not in self.cs.equality_columns:
                raise ValueError(
                    "column %r is not equality-enabled; call enable_equality" % col
                )
        self._check_row(row_a)
        self._check_row(row_b)
        self.copies.append((col_a, row_a, col_b, row_b))

    # -- reads -------------------------------------------------------------------

    def value(self, column: Column, row: int) -> int:
        """Read a cell; unassigned advice/fixed/instance cells read as zero."""
        self._grow()
        row %= self.n
        if column.kind == ColumnType.ADVICE:
            v = self.advice[column.index][row]
        elif column.kind == ColumnType.FIXED:
            v = self.fixed[column.index][row]
        elif column.kind == ColumnType.INSTANCE:
            v = self.instance[column.index][row]
        else:
            return self.selectors[column.index][row]
        return 0 if v is None else v

    def column_values(self, column: Column) -> List[int]:
        """A column's full evaluation vector (unassigned cells as zero)."""
        self._grow()
        if column.kind == ColumnType.ADVICE:
            grid = self.advice[column.index]
        elif column.kind == ColumnType.FIXED:
            grid = self.fixed[column.index]
        elif column.kind == ColumnType.INSTANCE:
            grid = self.instance[column.index]
        else:
            return list(self.selectors[column.index])
        return [0 if v is None else v for v in grid]

    def advice_is_zero(self, index: int) -> bool:
        """True iff synthesis never assigned a nonzero value to the column.

        Conservative in the safe direction: a column overwritten back to
        zero still reads as nonzero here, costing only a missed skip.
        """
        return index not in self._advice_nonzero

    def instance_values(self) -> List[List[int]]:
        """Public inputs per instance column (the verifier's copy)."""
        return [
            [0 if v is None else v for v in col] for col in self.instance
        ]
