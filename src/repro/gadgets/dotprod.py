"""Dot-product gadgets (paper §5.2).

Two variants the optimizer chooses between:

- :class:`DotProdGadget` — no bias: ``z = sum x_i * y_i`` with
  ``n = floor((N-1)/2)`` terms per row; long dot products are split into
  partials and combined with the Sum gadget.
- :class:`DotProdBiasGadget` — with bias/accumulator: ``z = acc + sum
  x_i * y_i`` with ``n = floor((N-2)/2)`` terms per row; long dot
  products chain the accumulator through the rows, no Sum gadget needed.

Results are *raw* (scale 2·scale_bits); linear layers rescale once at the
end, which is what keeps precision through the accumulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.arithmetic import SumGadget
from repro.gadgets.base import Gadget
from repro.tensor import PLACEHOLDER, Entry, Lanes


class DotProdGadget(Gadget):
    """z = sum x_i * y_i (no bias slot); one op per row."""

    name = "dot_prod"
    cells_per_op = 0

    @classmethod
    def slots_per_row(cls, num_cols: int) -> int:
        return 1

    @classmethod
    def terms_per_row(cls, num_cols: int) -> int:
        return (num_cols - 1) // 2

    def _configure(self) -> None:
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        xs = [Ref(c) for c in b.columns[:n]]
        ys = [Ref(c) for c in b.columns[n : 2 * n]]
        z = Ref(b.columns[-1])
        acc: Expression = Constant(0)
        for x, y in zip(xs, ys):
            acc = acc + x * y
        b.cs.create_gate("dot_prod", [z - acc], selector=self.selector)

    def _fill_row(self, ops: Sequence[Sequence[Sequence[Entry]]]) -> List[Entry]:
        b = self.builder
        ((xs, ys),) = ops
        n = self.terms_per_row(b.num_cols)
        if len(xs) != len(ys) or len(xs) > n:
            raise ValueError("dot product row takes up to %d aligned terms" % n)
        row = b.alloc_row(self.selector)
        total = 0
        for i, (x, y) in enumerate(zip(xs, ys)):
            b.place(row, i, x)
            b.place(row, n + i, y)
            total += x.value * y.value
        return [b.new_entry(total, row, b.num_cols - 1)]

    def dot(self, xs: Sequence[Entry], ys: Sequence[Entry],
            bias: Optional[Entry] = None) -> Entry:
        """A full-length dot product: one partial per row, the partials
        (and ``bias``) combined by the Sum gadget."""
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        if b.counting:
            rows = -(-len(xs) // n)
            b.advance(rows)
            partials = Lanes(PLACEHOLDER, rows + (bias is not None))
        else:
            partials = [self.assign_row([(xs[s : s + n], ys[s : s + n])])[0]
                        for s in range(0, len(xs), n)]
            if bias is not None:
                partials.append(bias)
        return b.gadget(SumGadget).sum_vector(partials)


class DotProdBiasGadget(Gadget):
    """z = acc + sum x_i * y_i; accumulation chains across rows."""

    name = "dot_prod_bias"
    cells_per_op = 0

    @classmethod
    def slots_per_row(cls, num_cols: int) -> int:
        return 1

    @classmethod
    def terms_per_row(cls, num_cols: int) -> int:
        return (num_cols - 2) // 2

    def _configure(self) -> None:
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        xs = [Ref(c) for c in b.columns[:n]]
        ys = [Ref(c) for c in b.columns[n : 2 * n]]
        acc_ref = Ref(b.columns[-2])
        z = Ref(b.columns[-1])
        acc: Expression = acc_ref
        for x, y in zip(xs, ys):
            acc = acc + x * y
        b.cs.create_gate("dot_prod_bias", [z - acc], selector=self.selector)

    def _fill_row(self, ops: Sequence) -> List[Entry]:
        b = self.builder
        ((xs, ys, bias),) = ops
        n = self.terms_per_row(b.num_cols)
        if len(xs) != len(ys) or len(xs) > n:
            raise ValueError("dot product row takes up to %d aligned terms" % n)
        row = b.alloc_row(self.selector)
        total = bias.value
        for i, (x, y) in enumerate(zip(xs, ys)):
            b.place(row, i, x)
            b.place(row, n + i, y)
            total += x.value * y.value
        b.place(row, b.num_cols - 2, bias)
        return [b.new_entry(total, row, b.num_cols - 1)]

    def dot(self, xs: Sequence[Entry], ys: Sequence[Entry], bias: Entry) -> Entry:
        """A full-length dot product, chaining the accumulator."""
        if len(xs) != len(ys):
            raise ValueError("dot product needs aligned vectors")
        n = self.terms_per_row(self.builder.num_cols)
        if self.builder.counting:
            self.builder.advance(-(-len(xs) // n))
            return PLACEHOLDER
        acc = bias
        for start in range(0, len(xs), n):
            (acc,) = self.assign_row(
                [(xs[start : start + n], ys[start : start + n], acc)]
            )
        return acc
