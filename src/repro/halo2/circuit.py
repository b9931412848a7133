"""Constraint system (circuit shape) and assignment (witness grid).

A :class:`ConstraintSystem` declares columns, gates, lookups, and which
columns participate in the permutation argument.  An :class:`Assignment`
holds the concrete 2^k-row grid of values plus the copy constraints
recorded while laying out a circuit.
"""

from __future__ import annotations

import sys
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.field.prime_field import PrimeField, require_goldilocks
from repro.halo2.column import KINDS, Column, ColumnType, cell_code, unpack_cells
from repro.halo2.expression import Expression
from repro.halo2.gate import Gate
from repro.halo2.lookup import LookupArgument

#: Degree of the permutation argument's helper constraint (see keygen).
PERMUTATION_CONSTRAINT_DEGREE = 3


class ConstraintSystem:
    """The static shape of a circuit: columns, gates, lookups, equality."""

    def __init__(self, field: PrimeField):
        require_goldilocks(field)
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
        #: assignments sized by this system, told when it allocates a
        #: column; held weakly and never pickled (a key carries the shape,
        #: not a grid)
        self._grids: List[weakref.ref] = []

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_grids"]
        return state

    def __setstate__(self, state):
        # keys interned as pickle's default restore does, so a reloaded
        # key pickles to the same bytes
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._grids = []

    # -- column allocation ---------------------------------------------------

    def count(self, kind: ColumnType) -> int:
        """Columns of one kind allocated so far."""
        return (self.num_advice, self.num_fixed, self.num_instance,
                self.num_selectors)[KINDS.index(kind)]

    def _allocated(self) -> None:
        for ref in self._grids:
            grid = ref()
            if grid is not None:
                grid.fit()

    def advice_column(self) -> Column:
        col = Column(ColumnType.ADVICE, self.num_advice)
        self.num_advice += 1
        self._allocated()
        return col

    def fixed_column(self) -> Column:
        col = Column(ColumnType.FIXED, self.num_fixed)
        self.num_fixed += 1
        self._allocated()
        return col

    def instance_column(self) -> Column:
        col = Column(ColumnType.INSTANCE, self.num_instance)
        self.num_instance += 1
        self._allocated()
        return col

    def selector(self) -> Column:
        col = Column(ColumnType.SELECTOR, self.num_selectors)
        self.num_selectors += 1
        self._allocated()
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
        selector: Optional[Column] = None,
    ) -> LookupArgument:
        """Look ``inputs`` up in ``table`` on the rows where ``selector``
        is on (every row without one); inputs are not multiplied by it."""
        lookup = LookupArgument(name=name, inputs=tuple(inputs),
                                table=tuple(table), selector=selector)
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
        """Maximum constraint degree including lookup/permutation helpers.

        Keygen pairs two lookups in one helper column only within this
        degree, so it is also the degree of the keys."""
        d = self.gate_degree()
        for lk in self.lookups:
            # helper constraints (keygen): h * (alpha + f) - q per lookup
            # left unpaired, (s' - s - sum h) * (alpha + t) + m per table
            d = max(d, 1 + lk.input_degree(), 1 + lk.table_degree())
        if self.equality_columns:
            d = max(d, PERMUTATION_CONSTRAINT_DEGREE)
        return d


def _reserve(buf: np.ndarray, rows: int) -> np.ndarray:
    """``buf``, or a zero-extended copy at least twice as long when it has
    fewer than ``rows`` rows (so growing row by row copies O(1) per row)."""
    if rows <= len(buf):
        return buf
    grown = np.zeros((max(rows, 2 * len(buf)),) + buf.shape[1:], buf.dtype)
    grown[: len(buf)] = buf
    return grown


class Assignment:
    """A concrete 2^k-row grid of values for a constraint system.

    Each column kind is one 2-D array with a row per allocated column
    (:attr:`advice`, :attr:`fixed`, :attr:`instance`, :attr:`selectors`).
    Field elements are ``uint64`` Goldilocks residues; selectors are 0/1
    bytes.  The arrays grow when the constraint system allocates a
    column.  Unassigned cells read as zero; :meth:`assigned` masks the
    value cells ever written, for the cell counts metrics and the
    profiler report.  :attr:`copies` is one ``(m, 6)`` ``int64`` array of
    ``(kind, index, row, kind, index, row)`` copy constraints.

    Synthesis writes whole blocks (:meth:`assign_block`,
    :meth:`copy_block`); the per-cell ``assign_*``, :meth:`copy`,
    :meth:`value` and :meth:`column_values` read and write the same
    arrays, for tests and diagnostics.
    """

    def __init__(self, cs: ConstraintSystem, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.cs = cs
        self.k = k
        self.n = 1 << k
        self._grids: Dict[ColumnType, np.ndarray] = {
            kind: np.zeros((0, self.n), np.uint8 if kind == ColumnType.SELECTOR
                           else np.uint64)
            for kind in KINDS}
        self._assigned: Dict[ColumnType, np.ndarray] = {
            kind: np.zeros((0, self.n), bool) for kind in KINDS
            if kind != ColumnType.SELECTOR}
        self._copies = np.zeros((0, 6), np.int64)
        self.num_copies = 0
        cs._grids.append(weakref.ref(self))
        self.fit()

    def fit(self) -> None:
        """Make room for every column the constraint system has allocated
        (it calls this on each allocation)."""
        for store in (self._grids, self._assigned):
            for kind, buf in store.items():
                store[kind] = _reserve(buf, self.cs.count(kind))

    # -- the grids -----------------------------------------------------------------

    def grid(self, kind: ColumnType) -> np.ndarray:
        """The live array of one column kind: a row per allocated column."""
        return self._grids[kind][: self.cs.count(kind)]

    @property
    def advice(self) -> np.ndarray:
        return self.grid(ColumnType.ADVICE)

    @property
    def fixed(self) -> np.ndarray:
        return self.grid(ColumnType.FIXED)

    @property
    def instance(self) -> np.ndarray:
        return self.grid(ColumnType.INSTANCE)

    @property
    def selectors(self) -> np.ndarray:
        return self.grid(ColumnType.SELECTOR)

    def assigned(self, kind: ColumnType) -> np.ndarray:
        """Which advice, fixed or instance cells were ever written."""
        return self._assigned[kind][: self.cs.count(kind)]

    @property
    def copies(self) -> np.ndarray:
        return self._copies[: self.num_copies]

    def reduce(self, values) -> np.ndarray:
        """Integers of any sign and size as field elements, one ``uint64``
        array (a ``uint64`` array is already below ``2p``)."""
        p = self.cs.field.p
        if getattr(values, "dtype", None) == np.uint64:
            return np.where(values >= p, values - np.uint64(p), values)
        try:
            signed = np.asarray(values, dtype=np.int64)
        except OverflowError:
            return (np.asarray(values, dtype=object) % p).astype(np.uint64)
        # every int64 lies in (-p, p), so a negative v reduces to v + p
        unsigned = signed.astype(np.uint64)
        return np.where(signed < 0, unsigned + np.uint64(p), unsigned)

    # -- block writes ----------------------------------------------------------------

    def assign_block(self, kind: ColumnType, index, rows, values) -> None:
        """Write many cells of one kind at once: ``values`` go to the cells
        ``(index, rows)`` (numpy indices of the kind's 2-D array)."""
        self._grids[kind][index, rows] = self.reduce(values)
        self._assigned[kind][index, rows] = True

    def enable_selectors(self, index: int, rows) -> None:
        """Switch one selector on at ``rows`` (a numpy index)."""
        self._grids[ColumnType.SELECTOR][index, rows] = 1

    def copy_block(self, src, dst) -> None:
        """Record copy constraints ``src[i] == dst[i]``, cells given as
        :func:`~repro.halo2.column.cell_code` integers.  Copies arrive a
        block per builder flush, so the list grows to exactly its new
        length: doubling it for the small block of exposed outputs that
        follows synthesis would hold the whole list twice over."""
        end = self.num_copies + len(src)
        if end > len(self._copies):
            grown = np.empty((end, 6), np.int64)
            grown[: self.num_copies] = self.copies
            self._copies = grown
        block = self._copies[self.num_copies : end]
        block[:, :3] = unpack_cells(src)
        block[:, 3:] = unpack_cells(dst)
        self.num_copies = end

    # -- per-cell writes -------------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n:
            raise IndexError("row %d out of range for 2^%d rows" % (row, self.k))

    def _assign(self, column: Column, row: int, value: int) -> None:
        self._check_row(row)
        self._grids[column.kind][column.index, row] = self.cs.field.reduce(value)
        self._assigned[column.kind][column.index, row] = True

    def assign_advice(self, column: Column, row: int, value: int) -> None:
        if column.kind != ColumnType.ADVICE:
            raise ValueError("expected an advice column, got %r" % column)
        self._assign(column, row, value)

    def assign_fixed(self, column: Column, row: int, value: int) -> None:
        if column.kind != ColumnType.FIXED:
            raise ValueError("expected a fixed column, got %r" % column)
        self._assign(column, row, value)

    def assign_instance(self, column: Column, row: int, value: int) -> None:
        if column.kind != ColumnType.INSTANCE:
            raise ValueError("expected an instance column, got %r" % column)
        self._assign(column, row, value)

    def enable_selector(self, column: Column, row: int) -> None:
        if column.kind != ColumnType.SELECTOR:
            raise ValueError("expected a selector column, got %r" % column)
        self._check_row(row)
        self.enable_selectors(column.index, row)

    def copy(self, col_a: Column, row_a: int, col_b: Column, row_b: int) -> None:
        """Record a copy constraint between two equality-enabled cells."""
        for col in (col_a, col_b):
            if col not in self.cs.equality_columns:
                raise ValueError(
                    "column %r is not equality-enabled; call enable_equality" % col
                )
        self._check_row(row_a)
        self._check_row(row_b)
        self.copy_block([cell_code(col_a, row_a)], [cell_code(col_b, row_b)])

    # -- reads -------------------------------------------------------------------

    def value(self, column: Column, row: int) -> int:
        """Read a cell; unassigned cells read as zero."""
        return int(self._grids[column.kind][column.index, row % self.n])

    def column_values(self, column: Column) -> List[int]:
        """A column's full evaluation vector (unassigned cells as zero)."""
        return self.grid(column.kind)[column.index].tolist()

    def copy_cells(self) -> List[Tuple[Column, int, Column, int]]:
        """The copy list as ``(column, row, column, row)`` tuples, for
        diagnostics (keygen reads :attr:`copies` as it is)."""
        return [(Column(KINDS[ka], ia), ra, Column(KINDS[kb], ib), rb)
                for ka, ia, ra, kb, ib, rb in self.copies.tolist()]

    def instance_values(self) -> List[List[int]]:
        """Public inputs per instance column (the verifier's copy)."""
        return [col.tolist() for col in self.instance]
