"""Bit-decomposition ReLU (paper §3's alternative representation).

Instead of a lookup table, decompose x into ``bits`` two's-complement
bits with boolean polynomial constraints, then gate the output on the
sign bit: ``y = (1 - sign) * x``.  Costs ``bits + 2`` cells per ReLU but
needs no lookup table — cheaper when a model does very few ReLUs, and
exactly the trade-off the optimizer weighs (paper §3's toy example).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.halo2.expression import Constant, Expression, Ref
from repro.gadgets.base import Gadget
from repro.tensor import Entry
from repro.resilience.errors import LayoutError


class BitDecompReluGadget(Gadget):
    """y = ReLU(x) via two's-complement bit decomposition."""

    name = "bit_decomp_relu"
    operands = (0,)

    def __init__(self, builder, bits: int = 8):
        if bits < 2:
            raise ValueError("need at least 2 bits (value + sign)")
        self.bits = bits
        self.cells_per_op = bits + 2
        self.computed = tuple(range(1, bits + 2))  # y, then the bits
        super().__init__(builder)

    def slots(self) -> int:
        slots = self.builder.num_cols // self.cells_per_op
        if slots == 0:
            raise LayoutError(
                "bit_decomp_relu with %d bits needs %d columns, got %d"
                % (self.bits, self.cells_per_op, self.builder.num_cols),
                num_cols=self.builder.num_cols, bits=self.bits,
            )
        return slots

    def _configure(self) -> None:
        b = self.builder
        bits = self.bits
        constraints = []
        for slot in range(self.slots()):
            base = slot * (bits + 2)
            x = Ref(b.columns[base])
            y = Ref(b.columns[base + 1])
            bit_refs = [Ref(b.columns[base + 2 + i]) for i in range(bits)]
            for bit in bit_refs:
                constraints.append(bit * bit - bit)
            magnitude: Expression = Constant(0)
            for i in range(bits - 1):
                magnitude = magnitude + Constant(1 << i) * bit_refs[i]
            sign = bit_refs[bits - 1]
            constraints.append(x - magnitude + Constant(1 << (bits - 1)) * sign)
            constraints.append(y - (Constant(1) - sign) * magnitude)
        b.cs.create_gate("bit_decomp_relu/%d" % bits, constraints,
                         selector=self.selector)

    def compute(self, x):
        half = 1 << (self.bits - 1)
        outside = (x < -half) | (x >= half)
        if outside.any():
            raise ValueError(
                "value %d does not fit in %d-bit two's complement"
                % (x[np.argmax(outside)], self.bits)
            )
        unsigned = x & ((1 << self.bits) - 1)
        return (np.maximum(x, 0),) + tuple(
            unsigned >> i & 1 for i in range(self.bits))

    def apply_vector(self, values: Sequence[Entry]) -> Sequence[Entry]:
        return self.assign_many(values)
