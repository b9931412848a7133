"""Multi-row gadget variants (paper §9.4, Table 13).

ZKML restricts itself to single-row constraints to stay compatible with
upcoming proving systems (§4.2).  These gadgets are the counterfactual:
the same operations expressed with constraints that span two adjacent
rows via rotations.  Table 13 measures that the single-row restriction
costs essentially nothing (the paper finds multi-row is up to 2.2%
*slower*).

Layouts (columns 0..2, two rows per op):

- adder: row0 = (x, y, _), row1 = (z, _, _); constraint x + y - z(next).
- max:   row0 = (a, b, _), row1 = (c, _, _); (c-a)(c-b) = 0 plus the two
  range lookups, all referencing the next row.
- dot:   row0 = (x1..xm), row1 = (y1..ym-1, z); z(next) = sum x_i y_i.
"""

from __future__ import annotations

import numpy as np

from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.base import Gadget, RowGadget
from repro.tensor import Entry


class _NextRowGadget(Gadget):
    """One op per two rows: operands ``x, y`` in columns 0 and 1, the
    result in column 0 of the next row."""

    cells_per_op = 0
    height = 2
    operands, computed = (0, 1), (0,)

    @classmethod
    def slots_per_row(cls, num_cols: int) -> int:
        return 1


class MultiRowAddGadget(_NextRowGadget):
    """z = x + y with the output on the following row."""

    name = "multirow_add"

    def _configure(self) -> None:
        b = self.builder
        x, y = Ref(b.columns[0]), Ref(b.columns[1])
        z_next = Ref(b.columns[0], 1)
        b.cs.create_gate("multirow_add", [x + y - z_next],
                         selector=self.selector)

    def compute(self, x, y):
        return (x + y,)


class MultiRowMaxGadget(_NextRowGadget):
    """c = max(a, b) with c on the following row."""

    name = "multirow_max"

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.bound = bound
        a, y = Ref(b.columns[0]), Ref(b.columns[1])
        c = Ref(b.columns[0], 1)
        b.cs.create_gate("multirow_max", [(c - a) * (c - y)],
                         selector=self.selector)
        b.cs.add_lookup("multirow_max/ge_a", inputs=[c - a + 1],
                        table=[Ref(table.col)], selector=self.selector)
        b.cs.add_lookup("multirow_max/ge_b", inputs=[c - y + 1],
                        table=[Ref(table.col)], selector=self.selector)

    def compute(self, x, y):
        c = np.maximum(x, y)
        if (c - np.minimum(x, y) >= self.bound).any():
            raise ValueError("multirow max operands beyond range table")
        return (c,)


class MultiRowDotGadget(RowGadget):
    """Dot product with operands split across two rows.

    Row 0 holds x_1..x_m, row 1 holds y_1..y_m in the first m columns and
    the result in the last column; the constraint spans both rows.
    """

    name = "multirow_dot"
    height = 2

    @classmethod
    def terms_per_row(cls, num_cols: int) -> int:
        return num_cols - 1

    def _configure(self) -> None:
        b = self.builder
        m = self.terms_per_row(b.num_cols)
        acc: Expression = Constant(0)
        for i in range(m):
            acc = acc + Ref(b.columns[i]) * Ref(b.columns[i], 1)
        z = Ref(b.columns[b.num_cols - 1], 1)
        b.cs.create_gate("multirow_dot", [z - acc], selector=self.selector)

    def _row(self, block, xs, ys) -> Entry:
        b = self.builder
        m = self.terms_per_row(b.num_cols)
        if len(xs) != len(ys) or len(xs) > m:
            raise ValueError("multirow dot takes up to %d aligned terms" % m)
        row = block.next_row()
        for i, (x, y) in enumerate(zip(xs, ys)):
            block.place(row, [i], [x])
            block.place(row + 1, [i], [y])
        return block.result(row + 1, b.num_cols - 1,
                            sum(x.value * y.value for x, y in zip(xs, ys)))
