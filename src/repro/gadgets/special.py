"""Specialized gadgets: maximum and variable rounded division (paper §5.1).

These are the softmax building blocks:

- Max: ``c = max(a, b)`` via ``(c-a)(c-b) = 0`` plus two range lookups
  ``c-a, c-b in [0, N)`` (reusing the range table).
- VarDiv: ``c = round(b / a)`` for witness-dependent ``a`` via the
  identity ``2b + a = 2a*c + r`` with ``r in [0, 2a)`` enforced by the
  two range lookups ``r in [0, N)`` and ``2a - r - 1 in [0, N)``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.halo2.expression import Constant, Ref
from repro.gadgets.base import Gadget
from repro.tensor import PLACEHOLDER, Entry


class MaxGadget(Gadget):
    """c = max(a, b); three cells per op."""

    name = "max"
    cells_per_op = 3

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.bound = bound
        sel = Ref(self.selector)
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            a, y, c = (Ref(b.columns[3 * slot + i]) for i in range(3))
            constraints.append((c - a) * (c - y))
            # c - a and c - b are in [0, bound): gated as sel * (diff + 1)
            b.cs.add_lookup(
                "max/%d/ge_a" % slot,
                inputs=[sel * (c - a + 1)],
                table=[Ref(table.col)],
            )
            b.cs.add_lookup(
                "max/%d/ge_b" % slot,
                inputs=[sel * (c - y + 1)],
                table=[Ref(table.col)],
            )
        b.cs.create_gate("max", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        for slot, (x, y) in enumerate(ops):
            c = max(x.value, y.value)
            if c - min(x.value, y.value) >= self.bound:
                raise ValueError(
                    "max gadget operands differ by %d, beyond range table bound %d"
                    % (c - min(x.value, y.value), self.bound)
                )
            b.place(row, 3 * slot, x)
            b.place(row, 3 * slot + 1, y)
            outputs.append(b.new_entry(c, row, 3 * slot + 2))
        return outputs

    def max_vector(self, values: Sequence[Entry]) -> Entry:
        """Maximum of a vector via a pairwise tournament."""
        if self.builder.counting:
            # each round packs its pairs into rows; an odd one out waits
            rows, work = 0, len(values)
            while work > 1:
                pairs = work // 2
                rows += -(-pairs // self.slots())
                work = pairs + work % 2
            self.builder.advance(rows)
            return PLACEHOLDER
        work = list(values)
        while len(work) > 1:
            reduced = self.assign_many(work[0 : len(work) - 1 : 2], work[1::2])
            if len(work) % 2:
                reduced.append(work[-1])
            work = reduced
        return work[0]


class VarDivGadget(Gadget):
    """c = round(b / a) for witness-dependent a > 0; four cells per op."""

    name = "var_div"
    cells_per_op = 4

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.bound = bound
        sel = Ref(self.selector)
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            a, num, c, r = (Ref(b.columns[4 * slot + i]) for i in range(4))
            constraints.append(2 * num + a - Constant(2) * a * c - r)
            b.cs.add_lookup(
                "var_div/%d/rem_lo" % slot,
                inputs=[sel * (r + 1)],
                table=[Ref(table.col)],
            )
            # r < 2a  <=>  2a - r - 1 in [0, bound)
            b.cs.add_lookup(
                "var_div/%d/rem_hi" % slot,
                inputs=[sel * (2 * a - r)],
                table=[Ref(table.col)],
            )
        b.cs.create_gate("var_div", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        for slot, (a, num) in enumerate(ops):
            if a.value <= 0:
                raise ValueError("var_div divisor must be positive")
            if 2 * a.value > self.bound:
                raise ValueError(
                    "var_div divisor %d exceeds range table bound %d; "
                    "decompose into limbs or raise lookup_bits"
                    % (a.value, self.bound // 2)
                )
            c = (2 * num.value + a.value) // (2 * a.value)
            r = 2 * num.value + a.value - 2 * a.value * c
            b.place(row, 4 * slot, a)
            b.place(row, 4 * slot + 1, num)
            outputs.append(b.new_entry(c, row, 4 * slot + 2))
            b.new_entry(r, row, 4 * slot + 3)
        return outputs


class VarDivWideGadget(Gadget):
    """c = round(b / a) for divisors beyond the range table (paper §5.1).

    When ``a`` exceeds the table bound N, the remainder ``r in [0, 2a)``
    and the strictness witness ``d = 2a - r - 1`` are decomposed into two
    limbs of ``lookup_bits`` each, every limb range-checked individually.
    Seven cells per op: a, b, c, r_lo, r_hi, d_lo, d_hi.
    """

    name = "var_div_wide"
    cells_per_op = 7

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.limb = bound
        sel = Ref(self.selector)
        constraints = []
        for slot in range(self.slots_per_row(b.num_cols)):
            cols = [Ref(b.columns[7 * slot + i]) for i in range(7)]
            a, num, c, r_lo, r_hi, d_lo, d_hi = cols
            r = r_hi * Constant(self.limb) + r_lo
            d = d_hi * Constant(self.limb) + d_lo
            constraints.append(2 * num + a - Constant(2) * a * c - r)
            # r < 2a  <=>  2a - r - 1 = d >= 0 with d's limbs in range
            constraints.append(2 * a - r - Constant(1) - d)
            for idx, limb_ref in ((3, r_lo), (4, r_hi), (5, d_lo), (6, d_hi)):
                b.cs.add_lookup(
                    "var_div_wide/%d/limb%d" % (slot, idx),
                    inputs=[sel * (limb_ref + 1)],
                    table=[Ref(table.col)],
                )
        b.cs.create_gate("var_div_wide", constraints, selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Entry]]) -> List[Entry]:
        b = self.builder
        row = b.alloc_row(self.selector)
        outputs = []
        for slot, (a, num) in enumerate(ops):
            if a.value <= 0:
                raise ValueError("var_div_wide divisor must be positive")
            if 2 * a.value > self.limb * self.limb:
                raise ValueError(
                    "divisor %d exceeds two-limb capacity %d"
                    % (a.value, self.limb * self.limb // 2)
                )
            c = (2 * num.value + a.value) // (2 * a.value)
            r = 2 * num.value + a.value - 2 * a.value * c
            d = 2 * a.value - r - 1
            base = 7 * slot
            b.place(row, base, a)
            b.place(row, base + 1, num)
            outputs.append(b.new_entry(c, row, base + 2))
            b.new_entry(r % self.limb, row, base + 3)
            b.new_entry(r // self.limb, row, base + 4)
            b.new_entry(d % self.limb, row, base + 5)
            b.new_entry(d // self.limb, row, base + 6)
        return outputs
