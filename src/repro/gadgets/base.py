"""Gadget base class and registry.

A gadget is a single-row constraint template.  It declares its selector
and constraints once per circuit (``configure``), knows how many logical
operations fit in one row at a given column count (``slots_per_row``),
and lays out any number of operations (``assign_many``) or one row of
them (``assign_row``).

A packed gadget describes one operation by its cell formula: which
columns of its slot take the operands (``operands``), which it computes
(``computed``, the result first), and how (``compute``, over arrays of
operand values).  ``assign_many`` turns that into one block write of
``ceil(n / slots) x height`` rows.  On a counting builder the same entry
points claim the rows their closed form says they would fill and touch
no entry.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.halo2.column import ROW_BITS
from repro.halo2.expression import Ref
from repro.resilience.errors import LayoutError
from repro.tensor import PLACEHOLDER, Entry, Lanes

if TYPE_CHECKING:
    from repro.gadgets.builder import CircuitBuilder

#: name -> gadget class, for the optimizer's logical-layout enumeration.
gadget_registry: Dict[str, Type["Gadget"]] = {}


class Gadget:
    """Base class for single-row gadgets."""

    #: Registry key; subclasses must override.
    name = "abstract"
    #: Number of grid cells one logical operation consumes.
    cells_per_op = 0
    #: Rows one operation spans (two for the multi-row variants).
    height = 1
    #: Column offsets within an op's slot: its operands, placed in this
    #: order on the op's first row, then the cells it computes on its last
    #: row (the op's result first).
    operands: Tuple[int, ...] = ()
    computed: Tuple[int, ...] = ()
    #: Whether a short row's unused slots hold padding ops (the gadget
    #: looks up every slot) instead of staying empty, and the operand
    #: values of a padding op (zeros unless a gadget's lookups need
    #: others).
    pads = False
    pad_op: Tuple[int, ...] = ()

    def __init__(self, builder: "CircuitBuilder"):
        self.builder = builder
        self.selector = builder.cs.selector()
        self._configure()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.name != "abstract":
            gadget_registry[cls.name] = cls

    @classmethod
    def slots_per_row(cls, num_cols: int) -> int:
        """How many logical operations fit in one row of ``num_cols``."""
        if cls.cells_per_op <= 0:
            raise NotImplementedError
        return max(num_cols // cls.cells_per_op, 0)

    def slots(self) -> int:
        """Operations per row at this builder's width; a width with no
        room for one is an infeasible layout, not a bug."""
        slots = self.slots_per_row(self.builder.num_cols)
        if slots == 0:
            raise LayoutError(
                "%s needs at least %d columns, got %d"
                % (self.name, self.cells_per_op, self.builder.num_cols),
                gadget=self.name, num_cols=self.builder.num_cols,
            )
        return slots

    # -- circuit-time behaviour ------------------------------------------------

    def _configure(self) -> None:
        """Declare this gadget's gate(s) and lookup(s); called once."""
        raise NotImplementedError

    def _slot_refs(self) -> List[List[Ref]]:
        """Per slot of a row, references to its ``cells_per_op`` cells."""
        columns, width = self.builder.columns, self.cells_per_op
        return [[Ref(col) for col in columns[s * width : (s + 1) * width]]
                for s in range(self.slots_per_row(self.builder.num_cols))]

    def compute(self, *values: np.ndarray) -> Sequence[np.ndarray]:
        """The values of the ``computed`` cells, one array each, from one
        ``object`` array per operand; raises ValueError on an operand the
        constraints cannot hold."""
        raise NotImplementedError

    def assign_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        """Lay out up to ``slots_per_row`` operations in a fresh row.

        ``ops`` is a list of per-op input entry tuples; returns one output
        entry per op (placeholders on a counting builder, which only
        claims the row).
        """
        if self.builder.counting:
            self.builder.claim(self.height)
            return [PLACEHOLDER] * len(ops)
        return self.assign_many(*zip(*ops))

    def assign_many(self, *operands) -> Sequence[Entry]:
        """Lay out one operation per position of the operand sequences,
        filling rows greedily, as one block write; an operand that is a
        single entry is shared by every operation."""
        # only a shared divisor ever precedes the operand sequence
        n = len(operands[isinstance(operands[0], Entry)])
        slots = self.slots()
        rows = -(-n // slots) * self.height
        b = self.builder
        if b.counting:
            b.claim(rows)
            return Lanes(PLACEHOLDER, n)
        block = b.block(self.selector, self.height)
        outputs = self._fill(block, *operands)
        b.write(block)
        return outputs

    def _fill(self, block, *operands) -> List[Entry]:
        """Add one op per operand position to ``block``'s next rows."""
        n = len(operands[isinstance(operands[0], Entry)])
        slots = self.slots()
        ops = -(-n // slots) * slots if self.pads else n
        columns = [[o] * n if isinstance(o, Entry) else list(o)
                   for o in operands]
        pad = self.pad_op or (0,) * len(columns)
        for column, value in zip(columns, pad):  # one shared pad per operand
            column += [Entry(value)] * (ops - n)
        computed = self.compute(*(np.array([e.value for e in column],
                                           dtype=object)
                                  for column in columns))
        at, values_at = _cells(ops, slots, self.cells_per_op, self.height,
                               self.operands, self.computed)
        first = block.start + block.rows  # codes shift by rows as plain ints
        block.rows += -(-n // slots) * self.height
        block.placed += [e for op in zip(*columns) for e in op]
        block.at += (at + first).tolist()
        values = np.concatenate(computed).tolist()
        values_at = (values_at + first).tolist()
        block.values += values
        block.values_at += values_at
        return list(map(Entry, values[:n], values_at[:n]))


# one layout per (op count, gadget shape): layer loops lay the same shape
# row after row
@functools.lru_cache(maxsize=1024)
def _cells(ops: int, slots: int, width: int, height: int,
           operands: Tuple[int, ...], computed: Tuple[int, ...]):
    """Cell codes, relative to a block's first row, of ``ops`` packed ops:
    their operands op by op, and their computed cells one kind after the
    other (the results first)."""
    row, slot = np.divmod(np.arange(ops, dtype=np.int64), slots)
    row, col = row * height, slot * width
    at = ((col[:, None] + operands) << ROW_BITS | row[:, None]).ravel()
    values_at = ((col + np.array(computed)[:, None]) << ROW_BITS
                 | row + height - 1).ravel()
    at.flags.writeable = values_at.flags.writeable = False
    return at, values_at


class RowGadget(Gadget):
    """A gadget whose op spans a whole row (``height`` rows) with a
    variable number of terms: sums and dot products, one op per row."""

    cells_per_op = 0

    @classmethod
    def slots_per_row(cls, num_cols: int) -> int:
        return 1

    def _row(self, block, *op) -> Entry:
        """Add one op's rows to ``block``; returns its result entry."""
        raise NotImplementedError

    def assign_row(self, ops) -> List[Entry]:
        b = self.builder
        if b.counting:
            b.claim(self.height)
            return [PLACEHOLDER]
        (op,) = ops
        block = b.block(self.selector, self.height)
        out = self._row(block, *op)
        b.write(block)
        return [out]
