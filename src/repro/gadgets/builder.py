"""CircuitBuilder: the synthesis context gadgets lay rows into.

The builder owns the shared advice columns (the grid width the optimizer
chose), a row cursor, the lookup tables (pointwise non-linearity tables
and range tables, each living in its own fixed columns), and a cache of
constant cells.  Gadget instances are cached so each gadget type declares
its selector, gate, and lookups exactly once per circuit.

Lookup-table convention: a gadget looks up ``x + OFFSET`` on the rows
its selector is on (the selector is the lookup's LogUp numerator, see
:mod:`repro.halo2.lookup`), with ``OFFSET`` placing every valid entry at
a nonzero value.  Rows not using the gadget are not looked up.  Each
table still carries the all-zero default row that selector-gated inputs
once needed, which keeps the fixed grid, and so every layout's ``k``, as
it was; an active ``x = -OFFSET`` (with output 0) hits that row and
passes (ROADMAP item 2 drops it).

Gadgets write in blocks.  A bulk entry point collects its rows in one
:class:`Block` (the entries it places, in layout order, and the cells it
computes) and hands it to :meth:`CircuitBuilder.write`: one selector
slice, the homes of first placements, one value block and one copy
block.  The builder queues values and copies and lands them in the
:class:`~repro.halo2.Assignment` arrays in one pass whenever the grid is
read (``builder.asg``), so a short block costs list appends, not array
operations.

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

import numpy as np

from repro.field.prime_field import GOLDILOCKS, PrimeField
from repro.halo2 import Assignment, ConstraintSystem, MockProver
from repro.halo2.column import ROW_BITS, Column, ColumnType, cell_code, unpack_cells
from repro.quantize import FixedPoint
from repro.tensor import PLACEHOLDER, Entry, Lanes


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

    def __init__(self, builder: "CircuitBuilder", fn_name: str):
        self.fn_name = fn_name
        self.bits = builder.lookup_bits
        self.half = 1 << (self.bits - 1)
        self.offset = self.half + 1
        self.in_col = builder.cs.fixed_column()
        self.out_col = builder.cs.fixed_column()
        if builder.counting:
            return
        size = 1 << self.bits
        if size + 1 > 1 << builder.k:
            raise ValueError(
                "nonlinear table needs %d rows but grid has %d"
                % (size + 1, 1 << builder.k)
            )
        inputs, self.outputs = _table_columns(fn_name, self.bits,
                                              builder.scale_bits)
        for col, values in ((self.in_col, inputs), (self.out_col, self.outputs)):
            builder.write_fixed(col, values)

    def apply(self, xs: np.ndarray) -> np.ndarray:
        """The table's exact outputs for an array of fixed-point inputs."""
        outside = (xs < -self.half) | (xs >= self.half)
        if outside.any():
            raise ValueError(
                "input %d outside the %d-bit table range of %r"
                % (xs[np.argmax(outside)], self.bits, self.fn_name)
            )
        return self.outputs[(xs + self.half).astype(np.int64)]


# a table of 2^bits entries costs one float evaluation per entry; every
# circuit of the same (fn, bits, scale) reads the same read-only columns
@functools.lru_cache(maxsize=256)
def _table_columns(fn_name: str, bits: int, scale_bits: int):
    """A function's table as (input column, outputs) integer arrays of
    length ``2^bits``: ``x + OFFSET`` and ``fn(x)`` for every input."""
    from repro.gadgets.nonlinear import fixed_eval

    fp = FixedPoint(scale_bits)
    half = 1 << (bits - 1)
    xs = range(-half, half)
    inputs = np.arange(1, 2 * half + 1, dtype=np.int64)
    outputs = np.array([fixed_eval(fn_name, x, fp) for x in xs])
    for column in (inputs, outputs):
        column.flags.writeable = False
    return inputs, outputs


class RangeTable:
    """A one-column table of ``v + 1`` for ``v in [0, bound)`` plus a zero
    default row; a gadget looks up ``expr + 1`` under its selector."""

    def __init__(self, builder: "CircuitBuilder", bound: int):
        if bound < 1:
            raise ValueError("range bound must be positive")
        self.bound = bound
        self.col = builder.cs.fixed_column()
        if builder.counting:
            return
        if bound + 1 > 1 << builder.k:
            raise ValueError(
                "range table [0, %d) needs %d rows but grid has %d"
                % (bound, bound + 1, 1 << builder.k)
            )
        builder.write_fixed(self.col, np.arange(1, bound + 1, dtype=np.int64))


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


class Block:
    """One block write under construction: the rows a gadget lays out.

    ``placed`` entries go to the cells ``at`` in layout order; ``values``
    are the cells the gadget computed, at ``values_at`` (all advice cell
    codes, ``column << ROW_BITS | row``).
    """

    def __init__(self, start: int, selector: Column, height: int = 1):
        self.start = start
        self.selector = selector
        self.height = height
        self.rows = 0
        self.placed: List[Entry] = []
        self.at: List[int] = []
        self.values: List[int] = []
        self.values_at: List[int] = []

    def next_row(self) -> int:
        """Take the next op's ``height`` rows; returns the first."""
        row = self.start + self.rows
        self.rows += self.height
        return row

    def place(self, row: int, cols: Sequence[int],
              entries: Sequence[Entry]) -> None:
        """Place ``entries`` in builder columns ``cols`` of ``row``."""
        self.placed += entries
        self.at += [col << ROW_BITS | row for col in cols]

    def result(self, row: int, col: int, value: int) -> Entry:
        """A computed cell, as the entry later cells read it through."""
        cell = col << ROW_BITS | row
        self.values.append(value)
        self.values_at.append(cell)
        return Entry(value, cell)


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
        #: a counting builder declares advice columns only to configure;
        #: an assigning one's column ``i`` is advice column ``i``
        self.columns: List[Column] = [] if self.counting else self._advice_columns()
        self._asg = None if self.counting else Assignment(self.cs, k)
        #: written advice cells (cell codes) and their values, and copy
        #: constraints (home and cell codes), not yet in the grid
        self._cells: List[int] = []
        self._values: List[int] = []
        self._homes: List[int] = []
        self._copies: List[int] = []
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

    @property
    def asg(self) -> Optional[Assignment]:
        """The witness grid holding every write so far (None when counting)."""
        if self._cells:
            cells = unpack_cells(self._cells)
            self._asg.assign_block(ColumnType.ADVICE, cells[:, 1], cells[:, 2],
                                   self._values)
            self._cells, self._values = [], []
        if self._homes:
            self._asg.copy_block(self._homes, self._copies)
            self._homes, self._copies = [], []
        return self._asg

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
    def configured(self) -> Tuple[Tuple[Type, Tuple], ...]:
        """The gadgets configured so far, as ``(class, params)`` keys in
        first-use order."""
        return tuple(self._gadgets)

    def declare(self, gadgets, weight_columns: int) -> None:
        """Declare on a counting builder what a real synthesis declares
        before it exposes outputs: the advice columns, ``weight_columns``
        parameter columns and the ``gadgets`` (a count walk's
        :attr:`configured`), each configured for real in the order given
        (the count walk itself only adopts them)."""
        self.columns = self._advice_columns()
        for _ in range(weight_columns):
            self.cs.enable_equality(self.cs.fixed_column())
        for cls, params in gadgets:
            cls(self, **dict(params))

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

    def claim(self, rows: int, selector: Optional[Column] = None,
              height: int = 1) -> int:
        """Claim the next ``rows`` rows, switching ``selector`` on in every
        ``height``-th of them (each op's first row); returns the first.

        A counting builder only advances: this is how a gadget's closed
        form claims the rows its bulk entry point would fill.
        """
        start = self._row
        self._row += rows
        if not self.counting:
            if self._row > self._asg.n:
                raise ValueError(
                    "circuit overflow: needs more than 2^%d rows" % self.k
                )
            if selector is not None:
                self._asg.enable_selectors(selector.index,
                                           slice(start, self._row, height))
        return start

    def block(self, selector: Column, height: int = 1) -> Block:
        """An empty block starting at the next free row."""
        return Block(self._row, selector, height)

    def write(self, block: Block) -> None:
        """Land one block: claim its rows, make each placed entry's first
        placement its home and copy-constrain every later one to it, and
        queue its values."""
        self.claim(block.rows, block.selector, block.height)
        homes, copies = self._homes, self._copies
        for entry, cell in zip(block.placed, block.at):
            if entry.home is None:
                entry.home = cell
            else:
                homes.append(entry.home)
                copies.append(cell)
        self._cells += block.at
        self._cells += block.values_at
        self._values += [entry.value for entry in block.placed]
        self._values += block.values

    def copy(self, a: Entry, b: Entry) -> None:
        """Constrain two placed entries to be equal."""
        self._homes.append(a.home)
        self._copies.append(b.home)

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

    # -- constants & tables -----------------------------------------------------------

    def write_fixed(self, column: Column, values) -> None:
        """Fill a whole fixed column in one slice: ``values`` from row 0,
        zeros below them."""
        full = np.zeros(self._asg.n, dtype=np.asarray(values).dtype)
        full[: len(values)] = values
        self._asg.assign_block(ColumnType.FIXED, column.index, slice(None), full)

    def constant(self, value: int) -> Entry:
        """A shared, copy-constrainable constant cell (fixed column)."""
        if self.counting:
            return PLACEHOLDER
        entry = self._const_cache.get(value)
        if entry is None:
            if self._const_row >= self._asg.n:
                raise ValueError("constant column overflow")
            self._asg.assign_fixed(self._const_col, self._const_row, value)
            entry = Entry(value, cell_code(self._const_col, self._const_row))
            self._const_cache[value] = entry
            self._const_row += 1
        return entry

    def zero(self) -> Entry:
        return self.constant(0)

    def nonlinear_table(self, fn_name: str) -> NonlinearTable:
        table = self._nl_tables.get(fn_name)
        if table is None:
            table = NonlinearTable(self, fn_name)
            self._nl_tables[fn_name] = table
        return table

    def range_table(self, bound: int) -> RangeTable:
        table = self._range_tables.get(bound)
        if table is None:
            table = RangeTable(self, bound)
            self._range_tables[bound] = table
        return table

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
        entries = list(entries)
        if len(entries) > self._asg.n:
            raise ValueError("too many public values for the grid")
        if any(entry.home is None for entry in entries):
            raise ValueError("cannot expose an unplaced entry")
        self._asg.assign_block(ColumnType.INSTANCE, column.index,
                               slice(0, len(entries)),
                               [entry.value for entry in entries])
        first = cell_code(column, 0)
        self._homes += [entry.home for entry in entries]
        self._copies += range(first, first + len(entries))

    def weight_entries(self, values) -> List[Entry]:
        """Materialize model parameters in dedicated fixed columns.

        Weights live in fixed columns so they are baked into the
        verifying key at keygen: the vk digest is then a binding
        commitment to the model, and proving/verifying keys are
        model-specific (paper §8).  Gadgets that consume a weight add a
        copy constraint back to its fixed cell.  Each column's share is
        written as one slice.
        """
        values = [int(value) for value in values]
        out: List[Entry] = []
        while len(out) < len(values):
            if self._weight_row >= self._asg.n or self._weight_col is None:
                self._weight_col = self.cs.fixed_column()
                self.cs.enable_equality(self._weight_col)
                self._weight_row = 0
            start = self._weight_row
            chunk = values[len(out) : len(out) + self._asg.n - start]
            self._weight_row += len(chunk)
            self._asg.assign_block(ColumnType.FIXED, self._weight_col.index,
                                   slice(start, self._weight_row), chunk)
            first = cell_code(self._weight_col, start)
            out += map(Entry, chunk, range(first, first + len(chunk)))
        return out
