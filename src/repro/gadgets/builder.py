"""CircuitBuilder: the synthesis context gadgets lay rows into.

The builder owns the shared advice columns (the grid width the optimizer
chose), a row cursor, the lookup tables (pointwise non-linearity tables
and range tables, each living in its own fixed columns), and a cache of
constant cells.  Gadget instances are cached so each gadget type declares
its selector, gate, and lookups exactly once per circuit.

Lookup-table convention: inputs are gated as ``sel * (x + OFFSET)`` with
``OFFSET`` placing every valid entry at a nonzero value, and each table
carries an all-zero default row.  Rows not using the gadget therefore
look up the default tuple, while active rows can only hit real entries.

A builder made with ``k=None`` *counts* instead of assigning: it is the
physical-layout simulator.  It holds no grid (``k`` is what it computes),
rows are cursor advances, constants and tables record only their bound,
and each gadget contributes the selectors, lookups and tables its real
``_configure`` declared — run once per (gadget, params, width, scale,
lookup bits) and reused by every layout of that shape.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.field.prime_field import GOLDILOCKS, PrimeField
from repro.halo2 import Assignment, ConstraintSystem, MockProver, Ref
from repro.halo2.column import Column
from repro.quantize import FixedPoint
from repro.tensor import PLACEHOLDER, Cell, Entry, Lanes


@dataclass(frozen=True)
class Region:
    """A named band of gadget rows (e.g. the rows one model layer owns).

    ``end`` is exclusive.  Regions let the MockProver and ``zkml
    diagnose`` attribute a failing row back to the layer or gadget that
    laid it out.
    """

    name: str
    kind: str
    start: int
    end: int


class NonlinearTable:
    """A two-column lookup table enumerating a pointwise function.

    Covers fixed-point inputs in ``[-2^(bits-1), 2^(bits-1))``; the input
    column stores ``x + OFFSET`` with ``OFFSET = 2^(bits-1) + 1`` so valid
    entries are the nonzero values ``1 .. 2^bits``.
    """

    def __init__(self, builder: "CircuitBuilder", fn_name: str,
                 fn: Callable[[float], float]):
        self.fn_name = fn_name
        self.bits = builder.lookup_bits
        self.offset = (1 << (self.bits - 1)) + 1
        self.in_col = builder.cs.fixed_column()
        self.out_col = builder.cs.fixed_column()
        self._map: Dict[int, int] = {}
        if builder.counting:
            return
        fp = builder.fp
        size = 1 << self.bits
        if size + 1 > builder.asg.n:
            raise ValueError(
                "nonlinear table needs %d rows but grid has %d"
                % (size + 1, builder.asg.n)
            )
        half = size >> 1
        from repro.gadgets.nonlinear import fixed_eval

        for row in range(size):
            x = row - half
            y = fixed_eval(fn_name, x, fp)
            self._map[x] = y
            builder.asg.assign_fixed(self.in_col, row, x + self.offset)
            builder.asg.assign_fixed(self.out_col, row, y)
        for row in range(size, builder.asg.n):
            builder.asg.assign_fixed(self.in_col, row, 0)
            builder.asg.assign_fixed(self.out_col, row, 0)

    def apply(self, x: int) -> int:
        """The table's exact output for a fixed-point input."""
        try:
            return self._map[x]
        except KeyError:
            raise ValueError(
                "input %d outside the %d-bit table range of %r"
                % (x, self.bits, self.fn_name)
            ) from None


class RangeTable:
    """A one-column table of ``v + 1`` for ``v in [0, bound)`` plus a zero
    default row; lookup inputs are gated as ``sel * (expr + 1)``."""

    def __init__(self, builder: "CircuitBuilder", bound: int):
        if bound < 1:
            raise ValueError("range bound must be positive")
        self.bound = bound
        self.col = builder.cs.fixed_column()
        if builder.counting:
            return
        if bound + 1 > builder.asg.n:
            raise ValueError(
                "range table [0, %d) needs %d rows but grid has %d"
                % (bound, bound + 1, builder.asg.n)
            )
        for row in range(bound):
            builder.asg.assign_fixed(self.col, row, row + 1)
        for row in range(bound, builder.asg.n):
            builder.asg.assign_fixed(self.col, row, 0)


# bounded so a long-lived process sweeping many shapes cannot grow it
# without limit; the eight zoo specs need about 1.1k entries
@functools.lru_cache(maxsize=4096)
def _configured_once(cls: Type, params: Tuple, num_cols: int, scale_bits: int,
                     lookup_bits: int):
    """Configure one gadget for real on a scratch counting builder and keep
    what it declared: (instance, selectors, lookups, nl tables, range
    bounds).  The instance keeps its parameters, not the scratch builder."""
    scratch = CircuitBuilder(None, num_cols, scale_bits, lookup_bits)
    scratch.columns = scratch._advice_columns()
    gadget = cls(scratch, **dict(params))
    gadget.builder = None
    return (gadget, scratch.cs.num_selectors, len(scratch.cs.lookups),
            tuple(scratch._nl_tables), tuple(scratch._range_tables))


class CircuitBuilder:
    """Synthesis context: grid columns, row cursor, tables, constants.

    ``k=None`` makes a counting builder (see the module docstring); it
    needs an explicit ``lookup_bits``.
    """

    def __init__(
        self,
        k: Optional[int],
        num_cols: int,
        scale_bits: int,
        lookup_bits: Optional[int] = None,
        field: PrimeField = GOLDILOCKS,
    ):
        if num_cols < 3:
            raise ValueError("gadgets need at least 3 columns")
        self.field = field
        self.k = k
        self.num_cols = num_cols
        self.scale_bits = scale_bits
        self.fp = FixedPoint(scale_bits)
        self.lookup_bits = lookup_bits if lookup_bits is not None else k - 1
        if self.lookup_bits < 1:
            raise ValueError("lookup_bits must be at least 1")
        self.cs = ConstraintSystem(field)
        self.counting = k is None
        #: a counting builder declares advice columns only to configure
        self.columns: List[Column] = [] if self.counting else self._advice_columns()
        self.asg = None if self.counting else Assignment(self.cs, k)
        #: lookups and selectors of gadgets a counting builder adopted
        #: from their one real configure (its own ``cs`` holds neither)
        self._adopted_lookups = 0
        self._adopted_selectors = 0
        self._row = 0
        #: Row regions recorded during synthesis (one per model layer).
        self.regions: List[Region] = []
        self._gadgets: Dict[Tuple, object] = {}
        self._nl_tables: Dict[str, NonlinearTable] = {}
        self._range_tables: Dict[int, RangeTable] = {}
        self._const_col = self.cs.fixed_column()
        self.cs.enable_equality(self._const_col)
        self._const_cache: Dict[int, Entry] = {}
        self._const_row = 0
        self._weight_col = None
        self._weight_row = 0

    def _advice_columns(self) -> List[Column]:
        columns = []
        for _ in range(self.num_cols):
            col = self.cs.advice_column()
            self.cs.enable_equality(col)
            columns.append(col)
        return columns

    # -- gadgets -----------------------------------------------------------------

    def gadget(self, cls: Type, **params):
        """Get (or lazily configure) a gadget instance; cached per params."""
        key = (cls, tuple(sorted(params.items())))
        inst = self._gadgets.get(key)
        if inst is None:
            if self.counting:
                inst = self._adopt(*_configured_once(
                    cls, key[1], self.num_cols, self.scale_bits,
                    self.lookup_bits))
            else:
                inst = cls(self, **params)
            self._gadgets[key] = inst
        return inst

    def _adopt(self, gadget, selectors: int, lookups: int, nl_tables,
               range_bounds):
        """Count what a configured gadget adds to this circuit and bind a
        copy of it here (a counting builder never configures twice)."""
        self._adopted_selectors += selectors
        self._adopted_lookups += lookups
        for fn_name in nl_tables:
            self.nonlinear_table(fn_name)
        for bound in range_bounds:
            self.range_table(bound)
        clone = object.__new__(type(gadget))  # a shallow copy, bound here
        clone.__dict__ = dict(gadget.__dict__, builder=self)
        return clone

    @property
    def num_lookups(self) -> int:
        return len(self.cs.lookups) + self._adopted_lookups

    @property
    def num_selectors(self) -> int:
        return self.cs.num_selectors + self._adopted_selectors

    # -- rows ---------------------------------------------------------------------

    @property
    def rows_used(self) -> int:
        return self._row

    def alloc_row(self, selector: Column) -> int:
        """Claim the next free row and enable a selector on it."""
        row = self.alloc_row_unselected()
        if not self.counting:
            self.asg.enable_selector(selector, row)
        return row

    def alloc_row_unselected(self) -> int:
        """Claim the next free row without enabling any selector (the
        continuation row of a multi-row gadget)."""
        row = self._row
        if not self.counting and row >= self.asg.n:
            raise ValueError(
                "circuit overflow: needs more than 2^%d rows" % self.k
            )
        self._row += 1
        return row

    def advance(self, rows: int) -> None:
        """Counting builder: claim ``rows`` rows a gadget's closed form
        says its bulk entry point would fill."""
        self._row += rows

    def repeat(self, n: int, body: Callable[[int], object]) -> Sequence:
        """``[body(i) for i in range(n)]`` for a layer loop whose
        iterations lay out identical rows (positions, windows, vectors).

        A counting builder runs ``body(0)`` once and claims its rows ``n``
        times, so a count walk costs per layer, not per element.
        """
        if not self.counting:
            return [body(i) for i in range(n)]
        if n == 0:
            return []
        start = self._row
        item = body(0)
        self._row += (n - 1) * (self._row - start)
        return Lanes(item, n)

    @contextmanager
    def region(self, name: str, kind: str = ""):
        """Record which rows the enclosed synthesis claims.

        Regions may nest; inner (more specific) regions are appended
        after their parents, and row lookups prefer the innermost match.
        """
        start = self._row
        index = len(self.regions)
        self.regions.append(Region(name, kind, start, start))
        try:
            yield
        finally:
            self.regions[index] = Region(name, kind, start, self._row)

    def place(self, row: int, col_idx: int, entry: Entry) -> Cell:
        """Write an entry's value into a cell.

        The first placement materializes the entry (the cell becomes its
        home); later placements copy-constrain back to that home, so every
        reuse of a value is sound.
        """
        column = self.columns[col_idx]
        self.asg.assign_advice(column, row, entry.value)
        cell = Cell(column, row)
        if entry.cell is None:
            entry.cell = cell
        else:
            self.asg.copy(entry.cell.column, entry.cell.row, column, row)
        return cell

    def new_entry(self, value: int, row: int, col_idx: int) -> Entry:
        """Create and place a fresh (output) entry."""
        entry = Entry(value)
        self.place(row, col_idx, entry)
        return entry

    # -- constants & tables -----------------------------------------------------------

    def constant(self, value: int) -> Entry:
        """A shared, copy-constrainable constant cell (fixed column)."""
        if self.counting:
            return PLACEHOLDER
        entry = self._const_cache.get(value)
        if entry is None:
            if self._const_row >= self.asg.n:
                raise ValueError("constant column overflow")
            self.asg.assign_fixed(self._const_col, self._const_row, value)
            entry = Entry(value, Cell(self._const_col, self._const_row))
            self._const_cache[value] = entry
            self._const_row += 1
        return entry

    def zero(self) -> Entry:
        return self.constant(0)

    def nonlinear_table(self, fn_name: str) -> NonlinearTable:
        table = self._nl_tables.get(fn_name)
        if table is None:
            from repro.gadgets.nonlinear import NONLINEAR_FUNCTIONS

            fn = NONLINEAR_FUNCTIONS[fn_name]
            table = NonlinearTable(self, fn_name, fn)
            self._nl_tables[fn_name] = table
        return table

    def range_table(self, bound: int) -> RangeTable:
        table = self._range_tables.get(bound)
        if table is None:
            table = RangeTable(self, bound)
            self._range_tables[bound] = table
        return table

    def selector_ref(self, selector: Column) -> Ref:
        return Ref(selector)

    # -- checking -----------------------------------------------------------------------

    def mock_check(self) -> None:
        """Run the MockProver and raise on any constraint violation."""
        MockProver(self.cs, self.asg, regions=self.regions).assert_satisfied()

    def table_rows_needed(self) -> int:
        """Rows the largest lookup table in this circuit requires."""
        rows = 0
        if self._nl_tables:
            rows = max((1 << t.bits) + 1 for t in self._nl_tables.values())
        for t in self._range_tables.values():
            rows = max(rows, t.bound + 1)
        return rows

    def expose(self, entries) -> None:
        """Expose entries as public inputs (a fresh instance column).

        Each value is copied into an instance column cell, so the verifier
        sees exactly the values the circuit computed — this is how model
        outputs become part of the statement being proven.
        """
        column = self.cs.instance_column()
        self.cs.enable_equality(column)
        for row, entry in enumerate(entries):
            if row >= self.asg.n:
                raise ValueError("too many public values for the grid")
            if entry.cell is None:
                raise ValueError("cannot expose an unplaced entry")
            self.asg.assign_instance(column, row, entry.value)
            self.asg.copy(entry.cell.column, entry.cell.row, column, row)

    def weight_entries(self, values) -> List[Entry]:
        """Materialize model parameters in dedicated fixed columns.

        Weights live in fixed columns so they are baked into the
        verifying key at keygen: the vk digest is then a binding
        commitment to the model, and proving/verifying keys are
        model-specific (paper §8).  Gadgets that consume a weight add a
        copy constraint back to its fixed cell.
        """
        out: List[Entry] = []
        for value in values:
            if self._weight_row >= self.asg.n or self._weight_col is None:
                self._weight_col = self.cs.fixed_column()
                self.cs.enable_equality(self._weight_col)
                self._weight_row = 0
            value = int(value)
            self.asg.assign_fixed(self._weight_col, self._weight_row, value)
            out.append(Entry(value, Cell(self._weight_col, self._weight_row)))
            self._weight_row += 1
        return out
