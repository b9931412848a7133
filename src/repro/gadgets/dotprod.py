"""Dot-product gadgets (paper §5.2).

Two variants the optimizer chooses between:

- :class:`DotProdGadget` — no bias: ``z = sum x_i * y_i`` with
  ``n = floor((N-1)/2)`` terms per row; long dot products are split into
  partials and combined with the Sum gadget.
- :class:`DotProdBiasGadget` — with bias/accumulator: ``z = acc + sum
  x_i * y_i`` with ``n = floor((N-2)/2)`` terms per row; long dot
  products chain the accumulator through the rows, no Sum gadget needed.

A linear layer lays all of its dot products with one :meth:`dots` call:
one block of rows, built from index arrays over the layer's operand rows.

Results are *raw* (scale 2·scale_bits); linear layers rescale once at the
end, which is what keeps precision through the accumulation.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Union

import numpy as np

from repro.halo2.column import ROW_BITS
from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.arithmetic import SumGadget
from repro.gadgets.base import RowGadget
from repro.tensor import PLACEHOLDER, Entry, Lanes, Tensor


def _exact(values: List[int]) -> np.ndarray:
    """Integers as an ``int64`` array, or as Python ints (``object``) when
    one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


#: what a dot's placement reads: its x row, its y row, its accumulator
#: operand, or (a chained row after the first) the previous row's result
X, Y, ACC, PREVIOUS = range(4)


# one layout per (width, length, chaining): a layer lays the same dot
# over and over
@functools.lru_cache(maxsize=1024)
def _dot_layout(num_cols: int, length: int, chained: bool):
    """One dot's placements in layout order, relative to its operands and
    its first row: what each reads (``X``, ``Y``, ``ACC``, ``PREVIOUS``),
    at which term (the row before, for ``PREVIOUS``), and its cell code.
    A row places its terms interleaved, ``x_i`` then ``y_i``, then its
    accumulator."""
    n = (num_cols - 1 - chained) // 2  # DotProdGadget.terms_per_row
    rows = -(-length // n)
    slot = np.arange(2 * n)
    term = np.arange(rows)[:, None] * n + slot // 2
    kind = np.broadcast_to(slot % 2, term.shape)  # X, Y, X, Y, ...
    code = (slot % 2 * n + slot // 2) << ROW_BITS | np.arange(rows)[:, None]
    valid = term < length
    if chained:
        row = np.arange(rows)[:, None]
        kind = np.hstack([kind, np.where(row > 0, PREVIOUS, ACC)])
        term = np.hstack([term, np.maximum(row - 1, 0)])
        code = np.hstack([code, (num_cols - 2) << ROW_BITS | row])
        valid = np.hstack([valid, np.ones_like(row, bool)])
    layout = kind[valid], term[valid], code[valid]
    for part in layout:
        part.flags.writeable = False
    return layout


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

    def _row(self, block, xs, ys, *acc) -> Entry:
        """One row of up to ``n`` aligned terms (and, chained, its
        accumulator ``acc``), for ops laid a row at a time; a layer's dot
        products go through :meth:`dots`."""
        b = self.builder
        n = self.terms_per_row(b.num_cols)
        if len(xs) != len(ys) or not 0 < len(xs) <= n:
            raise ValueError("dot product row takes up to %d aligned terms" % n)
        row = block.next_row()
        block.place(row, [c for i in range(len(xs)) for c in (i, n + i)],
                    [e for pair in zip(xs, ys) for e in pair])
        block.place(row, [b.num_cols - 2] * len(acc), acc)
        value = sum(x.value * y.value for x, y in zip(xs, ys))
        return block.result(row, b.num_cols - 1,
                            value + sum(a.value for a in acc))

    def dots(self, xs: Tensor, ys: Tensor,
             bias: Union[None, Entry, Sequence[Entry]] = None,
             pairs=None) -> Sequence[Entry]:
        """Every dot product of a layer, laid as one block.

        ``xs`` and ``ys`` hold operand rows of one length ``L`` along
        their last axis.  By default every ``xs`` row meets every ``ys``
        row, row-major (a matmul's ``A`` rows and ``B`` columns);
        ``pairs`` is otherwise an ``(x_index, y_index)`` pair, each an
        integer array or a tuple of them indexing the leading axes (as
        numpy indexes), broadcast together: dot ``i``, row-major over
        their shape, is ``xs[x_index] · ys[y_index]`` at position ``i``.
        ``bias`` is None, one entry added to every dot, or one entry per
        ``ys`` row.  Each dot takes ``ceil(L / n)`` consecutive rows; the
        Sum trees of the unchained gadget's partials follow them all in
        a second block.  Returns the dots' raw results."""
        b = self.builder
        length = xs.shape[-1]
        if ys.shape[-1] != length:
            raise ValueError("dot product needs aligned vectors")
        nx, ny = math.prod(xs.shape[:-1]), math.prod(ys.shape[:-1])
        if pairs is not None:
            x_index, y_index = (index if isinstance(index, tuple)
                                else (index,) for index in pairs)
            shape = np.broadcast(*x_index, *y_index).shape
        dots = nx * ny if pairs is None else math.prod(shape)
        rows = -(-length // self.terms_per_row(b.num_cols))
        if self.chained and bias is None:
            bias = b.zero()
        if b.counting:
            b.claim(dots * rows)
            if self.chained:
                return Lanes(PLACEHOLDER, dots)
            partials = Lanes(Lanes(PLACEHOLDER, rows + (bias is not None)),
                             dots)
            return b.gadget(SumGadget).sum_vectors(partials)
        if pairs is None:
            x_of, y_of = np.divmod(np.arange(dots), ny)
        else:
            zero = np.zeros(shape, np.int64)
            x_of, y_of = ((np.ravel_multi_index(index, t.shape[:-1])
                           + zero).ravel()
                          for index, t in ((x_index, xs), (y_index, ys)))
        if bias is None:
            biases, bias_of = np.empty(0, dtype=object), 0 * y_of
        elif isinstance(bias, Entry):
            biases, bias_of = np.array([bias], dtype=object), 0 * y_of
        else:
            biases, bias_of = np.array(bias, dtype=object), y_of
        xs, ys = (t.array().reshape(-1, length) for t in (xs, ys))
        if self.chained:
            return list(self._lay(xs, ys, x_of, y_of, biases, bias_of)[:, -1])
        # unchained rows take no accumulator: the bias joins the Sum tree
        partials = self._lay(xs, ys, x_of, y_of, biases[:0], bias_of)
        if bias is not None:
            partials = np.hstack([partials, biases[bias_of, None]])
        return b.gadget(SumGadget).sum_vectors(partials)

    def _lay(self, xs: np.ndarray, ys: np.ndarray, x_of: np.ndarray,
             y_of: np.ndarray, accs: np.ndarray, acc_of: np.ndarray
             ) -> np.ndarray:
        """Write the rows of every dot as one block; returns the row
        results (a chained dot's last row only), one row per dot.

        The block's operands are the entries of ``xs``, ``ys`` and
        ``accs`` (``acc_of`` picks each dot's; none unchained), each
        distinct entry read once; a chained row after a dot's first
        places the previous row's result, a computed cell of the block,
        as its accumulator."""
        b = self.builder
        (nx, length), ny, dots = xs.shape, len(ys), len(x_of)
        n = self.terms_per_row(b.num_cols)
        rows = -(-length // n)
        kind, term, code = _dot_layout(b.num_cols, length, self.chained)
        block = b.block(self.selector)
        operands = np.concatenate([xs.ravel(), ys.ravel(), accs])
        index = block.take_from(operands)
        values = _exact([entry.value for entry in block.placed])[index]
        xv = values[: nx * length].reshape(nx, length)
        yv = values[nx * length : (nx + ny) * length].reshape(ny, length)
        # exact products: int64 unless a row sum could overflow it
        top = int(np.abs(values).max())
        if top * top * length + top >= 1 << 63:
            values, xv, yv = (v.astype(object) for v in (values, xv, yv))
        sums = np.add.reduceat(xv[x_of] * yv[y_of], np.arange(0, length, n),
                               axis=1)
        if self.chained:
            sums = (np.cumsum(sums, axis=1)
                    + values[(nx + ny) * length + acc_of, None])
        # each placement's operand in [x rows | y rows | accumulators |
        # the block's row results] (one base per X, Y, ACC, PREVIOUS),
        # then its index in the block
        start = (np.arange(dots) * rows)[:, None]
        base = np.hstack([x_of[:, None] * length,
                          (nx + y_of[:, None]) * length,
                          (nx + ny) * length + acc_of[:, None],
                          start + len(operands)])
        index = np.concatenate([index, len(block.placed)
                                + np.arange(dots * rows)])
        block.rows = dots * rows
        block.take = index[base[:, kind] + term].ravel()
        block.at = (code + (block.start + start)).ravel()
        z = ((b.num_cols - 1) << ROW_BITS | block.start
             + np.arange(dots * rows).reshape(dots, rows))
        block.values, block.values_at = sums.ravel(), z.ravel()
        b.write(block)
        if self.chained:
            sums, z = sums[:, -1:], z[:, -1:]
        results = map(Entry, sums.ravel().tolist(), z.ravel().tolist())
        return np.fromiter(results, dtype=object).reshape(sums.shape)


class DotProdBiasGadget(DotProdGadget):
    """z = acc + sum x_i * y_i; accumulation chains across rows."""

    name = "dot_prod_bias"
    chained = True
