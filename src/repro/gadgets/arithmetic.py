"""Arithmetic gadgets (paper Table 4).

Each gadget packs as many independent operations into one row as the
column count allows; unused slots hold unassigned (zero) cells, which
satisfy every constraint trivially.

Fixed-point conventions (scale factor SF = 2^scale_bits):

- Add/Sub/Sum operate on like-scaled values, result keeps the scale.
- Mul/Square/SquaredDiff rescale their raw product back to SF using the
  rounded-division identity ``round(v / SF) = floor((2v + SF) / 2·SF)``,
  enforced with a remainder cell range-checked in ``[0, 2·SF)``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.base import Gadget
from repro.quantize import div_round
from repro.tensor import PLACEHOLDER, Entry


class AddGadget(Gadget):
    """z = x + y, three cells per op."""

    name = "add"
    cells_per_op = 3

    def _configure(self) -> None:
        b = self.builder
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, y, z = (Ref(b.columns[3 * slot + i]) for i in range(3))
            constraints.append(x + y - z)
        b.cs.create_gate("add", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        for slot, (x, y) in enumerate(ops):
            b.place(row, 3 * slot, x)
            b.place(row, 3 * slot + 1, y)
            outputs.append(b.new_entry(x.value + y.value, row, 3 * slot + 2))
        return outputs


class SubGadget(Gadget):
    """z = x - y, three cells per op."""

    name = "sub"
    cells_per_op = 3

    def _configure(self) -> None:
        b = self.builder
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, y, z = (Ref(b.columns[3 * slot + i]) for i in range(3))
            constraints.append(x - y - z)
        b.cs.create_gate("sub", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        for slot, (x, y) in enumerate(ops):
            b.place(row, 3 * slot, x)
            b.place(row, 3 * slot + 1, y)
            outputs.append(b.new_entry(x.value - y.value, row, 3 * slot + 2))
        return outputs


class _RescaleMixin:
    """Shared helpers for gadgets that rescale a raw product by SF."""

    def _rescale_constraint(self, raw: Expression, z: Ref, r: Ref) -> Expression:
        sf = self.builder.fp.factor
        return 2 * raw + Constant(sf) - Constant(2 * sf) * z - r

    def _rescale_witness(self, raw_value: int):
        sf = self.builder.fp.factor
        z = div_round(raw_value, sf)
        r = 2 * raw_value + sf - 2 * sf * z
        return z, r

    def _remainder_lookup(self, slot_label: str, r_col_idx: int) -> None:
        b = self.builder
        sf = b.fp.factor
        table = b.range_table(2 * sf)
        sel = Ref(self.selector)
        b.cs.add_lookup(
            "%s/%s/rem" % (self.name, slot_label),
            inputs=[sel * (Ref(b.columns[r_col_idx]) + 1)],
            table=[Ref(table.col)],
        )


class MulGadget(Gadget, _RescaleMixin):
    """z = round(x * y / SF), four cells per op (x, y, z, remainder)."""

    name = "mul"
    cells_per_op = 4

    def _configure(self) -> None:
        b = self.builder
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, y, z, r = (Ref(b.columns[4 * slot + i]) for i in range(4))
            constraints.append(self._rescale_constraint(x * y, z, r))
            self._remainder_lookup(str(slot), 4 * slot + 3)
        b.cs.create_gate("mul", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        padded = list(ops) + [(Entry(0), Entry(0))] * (
            self.slots_per_row(b.num_cols) - len(ops)
        )
        for slot, (x, y) in enumerate(padded):
            b.place(row, 4 * slot, x)
            b.place(row, 4 * slot + 1, y)
            z, r = self._rescale_witness(x.value * y.value)
            out = b.new_entry(z, row, 4 * slot + 2)
            b.new_entry(r, row, 4 * slot + 3)
            if slot < len(ops):
                outputs.append(out)
        return outputs


class SquareGadget(Gadget, _RescaleMixin):
    """z = round(x^2 / SF), three cells per op (x, z, remainder)."""

    name = "square"
    cells_per_op = 3

    def _configure(self) -> None:
        b = self.builder
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, z, r = (Ref(b.columns[3 * slot + i]) for i in range(3))
            constraints.append(self._rescale_constraint(x * x, z, r))
            self._remainder_lookup(str(slot), 3 * slot + 2)
        b.cs.create_gate("square", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        padded = list(ops) + [(Entry(0),)] * (
            self.slots_per_row(b.num_cols) - len(ops)
        )
        for slot, (x,) in enumerate(padded):
            b.place(row, 3 * slot, x)
            z, r = self._rescale_witness(x.value * x.value)
            out = b.new_entry(z, row, 3 * slot + 1)
            b.new_entry(r, row, 3 * slot + 2)
            if slot < len(ops):
                outputs.append(out)
        return outputs


class SquaredDiffGadget(Gadget, _RescaleMixin):
    """z = round((x - y)^2 / SF), four cells per op."""

    name = "squared_diff"
    cells_per_op = 4

    def _configure(self) -> None:
        b = self.builder
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, y, z, r = (Ref(b.columns[4 * slot + i]) for i in range(4))
            diff = x - y
            constraints.append(self._rescale_constraint(diff * diff, z, r))
            self._remainder_lookup(str(slot), 4 * slot + 3)
        b.cs.create_gate("squared_diff", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        padded = list(ops) + [(Entry(0), Entry(0))] * (
            self.slots_per_row(b.num_cols) - len(ops)
        )
        for slot, (x, y) in enumerate(padded):
            b.place(row, 4 * slot, x)
            b.place(row, 4 * slot + 1, y)
            z, r = self._rescale_witness((x.value - y.value) ** 2)
            out = b.new_entry(z, row, 4 * slot + 2)
            b.new_entry(r, row, 4 * slot + 3)
            if slot < len(ops):
                outputs.append(out)
        return outputs


class SumGadget(Gadget):
    """z = sum of up to N-1 values; one op per row (paper §5.2)."""

    name = "sum"
    cells_per_op = 0  # one op spans the whole row

    @classmethod
    def slots_per_row(cls, num_cols: int) -> int:
        return 1

    @classmethod
    def terms_per_row(cls, num_cols: int) -> int:
        return num_cols - 1

    def _configure(self) -> None:
        b = self.builder
        terms = [Ref(c) for c in b.columns[:-1]]
        z = Ref(b.columns[-1])
        acc: Expression = terms[0]
        for t in terms[1:]:
            acc = acc + t
        b.cs.create_gate("sum", [z - acc], selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        (values,) = ops
        if len(values) > self.terms_per_row(b.num_cols):
            raise ValueError("too many terms for one sum row")
        row = b.alloc_row(self.selector)
        total = 0
        for i, x in enumerate(values):
            b.place(row, i, x)
            total += x.value
        return [b.new_entry(total, row, b.num_cols - 1)]

    def sum_vector(self, values: Sequence[Entry]) -> Entry:
        """Sum a vector of any length by chaining partial sums."""
        terms = self.terms_per_row(self.builder.num_cols)
        if self.builder.counting:
            # each level sums full chunks (a lone leftover passes through)
            rows, work = 0, len(values)
            while work > 1:
                full, rem = divmod(work, terms)
                rows += full + (rem > 1)
                work = full + (rem > 0)
            self.builder.advance(rows)
            return PLACEHOLDER
        work = list(values)
        while len(work) > 1:
            partials = []
            for start in range(0, len(work), terms):
                chunk = work[start : start + terms]
                if len(chunk) == 1:
                    partials.append(chunk[0])
                else:
                    partials.extend(self.assign_row([chunk]))
            work = partials
        return work[0]


class DivRoundConstGadget(Gadget):
    """z = round(x / c) for a circuit constant c; three cells per op."""

    name = "div_round_const"
    cells_per_op = 3

    def __init__(self, builder, divisor: int):
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        self.divisor = divisor
        super().__init__(builder)

    def _configure(self) -> None:
        b = self.builder
        c = self.divisor
        table = b.range_table(2 * c)
        sel = Ref(self.selector)
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, z, r = (Ref(b.columns[3 * slot + i]) for i in range(3))
            constraints.append(2 * x + Constant(c) - Constant(2 * c) * z - r)
            b.cs.add_lookup(
                "div_round_const/%d/%d/rem" % (c, slot),
                inputs=[sel * (r + 1)],
                table=[Ref(table.col)],
            )
        b.cs.create_gate("div_round_const/%d" % c, constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        c = self.divisor
        row = b.alloc_row(self.selector)
        outputs = []
        padded = list(ops) + [(Entry(0),)] * (
            self.slots_per_row(b.num_cols) - len(ops)
        )
        for slot, (x,) in enumerate(padded):
            b.place(row, 3 * slot, x)
            z = div_round(x.value, c)
            r = 2 * x.value + c - 2 * c * z
            out = b.new_entry(z, row, 3 * slot + 1)
            b.new_entry(r, row, 3 * slot + 2)
            if slot < len(ops):
                outputs.append(out)
        return outputs


class ScaleConstGadget(Gadget):
    """z = c * x exactly (no rescale) for a circuit constant c; two cells."""

    name = "scale_const"
    cells_per_op = 2

    def __init__(self, builder, factor: int):
        self.factor = factor
        super().__init__(builder)

    def _configure(self) -> None:
        b = self.builder
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            x, z = (Ref(b.columns[2 * slot + i]) for i in range(2))
            constraints.append(Constant(self.factor) * x - z)
        b.cs.create_gate("scale_const/%d" % self.factor, constraints,
                         selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        for slot, (x,) in enumerate(ops):
            b.place(row, 2 * slot, x)
            outputs.append(b.new_entry(self.factor * x.value, row, 2 * slot + 1))
        return outputs
