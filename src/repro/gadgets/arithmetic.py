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

from typing import Sequence

from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.base import Gadget, RowGadget
from repro.tensor import PLACEHOLDER, Entry, Lanes


class AddGadget(Gadget):
    """z = x + y, three cells per op."""

    name = "add"
    cells_per_op = 3
    operands, computed = (0, 1), (2,)

    def _configure(self) -> None:
        self.builder.cs.create_gate(
            "add", [x + y - z for x, y, z in self._slot_refs()],
            selector=self.selector)

    def compute(self, x, y):
        return (x + y,)


class SubGadget(Gadget):
    """z = x - y, three cells per op."""

    name = "sub"
    cells_per_op = 3
    operands, computed = (0, 1), (2,)

    def _configure(self) -> None:
        self.builder.cs.create_gate(
            "sub", [x - y - z for x, y, z in self._slot_refs()],
            selector=self.selector)

    def compute(self, x, y):
        return (x - y,)


class _RescaleGadget(Gadget):
    """A gadget that rescales a raw product by SF: ``z = round(raw / SF)``
    with a remainder cell range-checked in ``[0, 2·SF)``, after its
    operands; every slot is looked up, so short rows pad."""

    pads = True

    def _raw(self, *operands):
        """The raw product, of slot references or of value arrays."""
        raise NotImplementedError

    def _configure(self) -> None:
        b = self.builder
        sf = b.fp.factor
        constraints = []
        for slot, refs in enumerate(self._slot_refs()):
            *operands, z, r = refs
            raw = self._raw(*operands)
            constraints.append(2 * raw + Constant(sf) - Constant(2 * sf) * z - r)
            b.cs.add_lookup("%s/%d/rem" % (self.name, slot),
                            inputs=[r + 1],
                            table=[Ref(b.range_table(2 * sf).col)],
                            selector=self.selector)
        b.cs.create_gate(self.name, constraints, selector=self.selector)

    def compute(self, *operands):
        sf = self.builder.fp.factor
        raw = self._raw(*operands)
        z = (2 * raw + sf) // (2 * sf)
        return z, 2 * raw + sf - 2 * sf * z


class MulGadget(_RescaleGadget):
    """z = round(x * y / SF), four cells per op (x, y, z, remainder)."""

    name = "mul"
    cells_per_op = 4
    operands, computed = (0, 1), (2, 3)

    def _raw(self, x, y):
        return x * y


class SquareGadget(_RescaleGadget):
    """z = round(x^2 / SF), three cells per op (x, z, remainder)."""

    name = "square"
    cells_per_op = 3
    operands, computed = (0,), (1, 2)

    def _raw(self, x):
        return x * x


class SquaredDiffGadget(_RescaleGadget):
    """z = round((x - y)^2 / SF), four cells per op."""

    name = "squared_diff"
    cells_per_op = 4
    operands, computed = (0, 1), (2, 3)

    def _raw(self, x, y):
        diff = x - y
        return diff * diff


class SumGadget(RowGadget):
    """z = sum of up to N-1 values; one op per row (paper §5.2)."""

    name = "sum"

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

    def _row(self, block, *values) -> Entry:
        b = self.builder
        if len(values) > self.terms_per_row(b.num_cols):
            raise ValueError("too many terms for one sum row")
        row = block.next_row()
        block.place(row, range(len(values)), values)
        return block.result(row, b.num_cols - 1, sum(x.value for x in values))

    def sum_vector(self, values: Sequence[Entry]) -> Entry:
        """Sum a vector of any length (see :meth:`sum_vectors`)."""
        return self.sum_vectors([values])[0]

    def sum_vectors(self, vectors: Sequence[Sequence[Entry]]) -> Sequence[Entry]:
        """Sum each of ``vectors`` (all of one length) by chaining partial
        sums: a tree of rows per vector, each level summing full chunks,
        the trees one after another in one block."""
        b = self.builder
        terms = self.terms_per_row(b.num_cols)
        if b.counting:
            # each level sums full chunks (a lone leftover passes through)
            rows, work = 0, len(vectors[0]) if len(vectors) else 0
            while work > 1:
                full, rem = divmod(work, terms)
                rows += full + (rem > 1)
                work = full + (rem > 0)
            b.claim(rows * len(vectors))
            return Lanes(PLACEHOLDER, len(vectors))
        block = b.block(self.selector)
        sums = []
        for values in vectors:
            work = list(values)
            while len(work) > 1:
                level, work = work, []
                for start in range(0, len(level), terms):
                    chunk = level[start : start + terms]
                    work.append(chunk[0] if len(chunk) == 1
                                else self._row(block, *chunk))
            sums.append(work[0])
        if block.rows:
            b.write(block)
        return sums


class DivRoundConstGadget(Gadget):
    """z = round(x / c) for a circuit constant c; three cells per op."""

    name = "div_round_const"
    cells_per_op = 3
    operands, computed, pads = (0,), (1, 2), True

    def __init__(self, builder, divisor: int):
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        self.divisor = divisor
        super().__init__(builder)

    def _configure(self) -> None:
        b = self.builder
        c = self.divisor
        table = b.range_table(2 * c)
        constraints = []
        for slot, (x, z, r) in enumerate(self._slot_refs()):
            constraints.append(2 * x + Constant(c) - Constant(2 * c) * z - r)
            b.cs.add_lookup(
                "div_round_const/%d/%d/rem" % (c, slot),
                inputs=[r + 1],
                table=[Ref(table.col)],
                selector=self.selector,
            )
        b.cs.create_gate("div_round_const/%d" % c, constraints, selector=self.selector)

    def compute(self, x):
        c = self.divisor
        z = (2 * x + c) // (2 * c)
        return z, 2 * x + c - 2 * c * z


class ScaleConstGadget(Gadget):
    """z = c * x exactly (no rescale) for a circuit constant c; two cells."""

    name = "scale_const"
    cells_per_op = 2
    operands, computed = (0,), (1,)

    def __init__(self, builder, factor: int):
        self.factor = factor
        super().__init__(builder)

    def _configure(self) -> None:
        self.builder.cs.create_gate(
            "scale_const/%d" % self.factor,
            [Constant(self.factor) * x - z for x, z in self._slot_refs()],
            selector=self.selector)

    def compute(self, x):
        return (self.factor * x,)
