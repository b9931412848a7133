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

import itertools
import operator
from typing import List, Optional, Sequence

from repro.halo2.column import ROW_BITS
from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.arithmetic import SumGadget
from repro.gadgets.base import RowGadget
from repro.tensor import PLACEHOLDER, Entry, Lanes


class DotProdGadget(RowGadget):
    """z = sum x_i * y_i (no bias slot); one op per row."""

    name = "dot_prod"
    #: whether the row also takes an accumulator, in column ``N - 2``
    chained = False

    @classmethod
    def terms_per_row(cls, num_cols: int) -> int:
        return (num_cols - 1 - cls.chained) // 2

    def _configure(self) -> None:
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        acc: Expression = Ref(b.columns[-2]) if self.chained else Constant(0)
        for x, y in zip(b.columns[:n], b.columns[n : 2 * n]):
            acc = acc + Ref(x) * Ref(y)
        b.cs.create_gate(self.name, [Ref(b.columns[-1]) - acc],
                         selector=self.selector)
        # a row places its terms interleaved, x_i then y_i
        self._term_codes = [c << ROW_BITS for i in range(n) for c in (i, n + i)]

    def _row(self, block, xs, ys, *acc) -> Entry:
        n = self.terms_per_row(self.builder.num_cols)
        if not 0 < len(xs) <= n:
            raise ValueError("dot product row takes up to %d aligned terms" % n)
        return self._rows(block, xs, ys, *acc)[0]

    def _rows(self, block, xs, ys, *acc) -> List[Entry]:
        """Rows of up to ``n`` aligned terms each, added to ``block``;
        returns their results.  With ``acc`` (the chained gadget) a row's
        accumulator, placed after its terms, is the previous row's
        result, and the first row's is ``acc``."""
        if len(xs) != len(ys):
            raise ValueError("dot product needs aligned vectors")
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        first = block.start + block.rows
        starts = range(0, len(xs), n)
        block.rows += len(starts)
        products = list(map(operator.mul, [x.value for x in xs],
                            [y.value for y in ys]))
        sums = [sum(products[s : s + n]) for s in starts]
        if acc:
            sums = list(itertools.accumulate(sums, initial=acc[0].value))[1:]
        # one column's cells on consecutive rows have consecutive codes
        z = (b.num_cols - 1) << ROW_BITS | first
        results = list(map(Entry, sums, range(z, z + len(sums))))
        carried = [*acc, *results]
        acc_code = (b.num_cols - 2) << ROW_BITS
        pairs = [None] * (2 * len(xs))
        pairs[::2], pairs[1::2] = xs, ys
        for r, s in enumerate(starts):
            row = first + r
            block.placed += pairs[2 * s : 2 * s + 2 * n]
            block.at += [c | row for c in self._term_codes[: 2 * (len(xs) - s)]]
            if acc:
                block.placed.append(carried[r])
                block.at.append(acc_code | row)
        block.values += sums
        block.values_at += range(z, z + len(sums))
        return results

    def dot(self, xs: Sequence[Entry], ys: Sequence[Entry],
            bias: Optional[Entry] = None) -> Entry:
        """A full-length dot product: one partial per row (one block),
        the partials (and ``bias``) combined by the Sum gadget."""
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        if b.counting:
            rows = -(-len(xs) // n)
            b.claim(rows)
            partials = Lanes(PLACEHOLDER, rows + (bias is not None))
        else:
            block = b.block(self.selector)
            partials = self._rows(block, xs, ys)
            b.write(block)
            if bias is not None:
                partials.append(bias)
        return b.gadget(SumGadget).sum_vector(partials)


class DotProdBiasGadget(DotProdGadget):
    """z = acc + sum x_i * y_i; accumulation chains across rows."""

    name = "dot_prod_bias"
    chained = True

    def dot(self, xs: Sequence[Entry], ys: Sequence[Entry], bias: Entry) -> Entry:
        """A full-length dot product, chaining the accumulator through
        its rows (one block)."""
        if len(xs) != len(ys):
            raise ValueError("dot product needs aligned vectors")
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        if b.counting:
            b.claim(-(-len(xs) // n))
            return PLACEHOLDER
        block = b.block(self.selector)
        results = self._rows(block, xs, ys, bias)
        b.write(block)
        return results[-1] if results else bias
