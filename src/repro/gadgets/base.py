"""Gadget base class and registry.

A gadget is a single-row constraint template.  It declares its selector
and constraints once per circuit (``configure``), knows how many logical
operations fit in one row at a given column count (``slots_per_row``),
and lays out one row of operations (``assign_row``) or any number of them
(``assign_many``).  On a counting builder the same entry points claim the
rows their closed form says they would fill and touch no entry.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Sequence, Type

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
    #: Rows one ``assign_row`` claims (two for the multi-row variants).
    height = 1

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

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        """Claim a row and assign ``ops`` into it (an assigning builder)."""
        raise NotImplementedError

    def assign_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        """Lay out up to ``slots_per_row`` operations in a fresh row.

        ``ops`` is a list of per-op input entry tuples; returns one output
        entry per op (placeholders on a counting builder, which only
        claims the row).
        """
        if self.builder.counting:
            self.builder.advance(self.height)
            return [PLACEHOLDER] * len(ops)
        return self._fill_row(ops)

    def assign_many(self, *operands) -> Sequence[Entry]:
        """Lay out one operation per position of the operand sequences,
        filling rows greedily; an operand that is a single entry is shared
        by every operation."""
        # only a shared divisor ever precedes the operand sequence
        n = len(operands[isinstance(operands[0], Entry)])
        slots = self.slots()
        if self.builder.counting:
            self.builder.advance(-(-n // slots) * self.height)
            return Lanes(PLACEHOLDER, n)
        ops = list(zip(*(itertools.repeat(o, n) if isinstance(o, Entry) else o
                         for o in operands)))
        outputs: List[Entry] = []
        for start in range(0, n, slots):
            outputs.extend(self.assign_row(ops[start : start + slots]))
        return outputs
