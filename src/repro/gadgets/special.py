"""Specialized gadgets: maximum and variable rounded division (paper §5.1).

These are the softmax building blocks:

- Max: ``c = max(a, b)`` via ``(c-a)(c-b) = 0`` plus two range lookups
  ``c-a, c-b in [0, N)`` (reusing the range table).
- VarDiv: ``c = round(b / a)`` for witness-dependent ``a`` via the
  identity ``2b + a = 2a*c + r`` with ``r in [0, 2a)`` enforced by the
  two range lookups ``r in [0, N)`` and ``2a - r - 1 in [0, N)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.halo2.expression import Constant, Ref
from repro.gadgets.base import Gadget
from repro.tensor import PLACEHOLDER, Entry


class MaxGadget(Gadget):
    """c = max(a, b); three cells per op."""

    name = "max"
    cells_per_op = 3
    operands, computed = (0, 1), (2,)

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.bound = bound
        constraints = []
        for slot, (a, y, c) in enumerate(self._slot_refs()):
            constraints.append((c - a) * (c - y))
            # c - a and c - b are in [0, bound): looked up as diff + 1
            for label, diff in (("ge_a", c - a), ("ge_b", c - y)):
                b.cs.add_lookup("max/%d/%s" % (slot, label),
                                inputs=[diff + 1], table=[Ref(table.col)],
                                selector=self.selector)
        b.cs.create_gate("max", constraints, selector=self.selector)

    def compute(self, x, y):
        c = np.maximum(x, y)
        gap = c - np.minimum(x, y)
        wide = gap >= self.bound
        if wide.any():
            raise ValueError(
                "max gadget operands differ by %d, beyond range table bound %d"
                % (gap[np.argmax(wide)], self.bound)
            )
        return (c,)

    def max_vector(self, values: Sequence[Entry]) -> Entry:
        """Maximum of a vector via a pairwise tournament (one block)."""
        if self.builder.counting:
            # each round packs its pairs into rows; an odd one out waits
            rows, work = 0, len(values)
            while work > 1:
                pairs = work // 2
                rows += -(-pairs // self.slots())
                work = pairs + work % 2
            self.builder.claim(rows)
            return PLACEHOLDER
        block = self.builder.block(self.selector)
        work = list(values)
        while len(work) > 1:
            reduced = self._fill(block, work[0 : len(work) - 1 : 2], work[1::2])
            if len(work) % 2:
                reduced.append(work[-1])
            work = reduced
        self.builder.write(block)
        return work[0]


class VarDivGadget(Gadget):
    """c = round(b / a) for witness-dependent a > 0; four cells per op."""

    name = "var_div"
    cells_per_op = 4
    operands, computed = (0, 1), (2, 3)
    # an empty slot would look up 2a - r = 0, which no table holds; the
    # pad 1 / 0 gives c = 0, r = 1 and looks up 2 and 1
    pads, pad_op = True, (1, 0)

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.bound = bound
        constraints = []
        for slot, (a, num, c, r) in enumerate(self._slot_refs()):
            constraints.append(2 * num + a - Constant(2) * a * c - r)
            # r in [0, bound), and r < 2a  <=>  2a - r - 1 in [0, bound)
            for label, shifted in (("rem_lo", r + 1), ("rem_hi", 2 * a - r)):
                b.cs.add_lookup("var_div/%d/%s" % (slot, label),
                                inputs=[shifted], table=[Ref(table.col)],
                                selector=self.selector)
        b.cs.create_gate("var_div", constraints, selector=self.selector)

    def compute(self, a, num):
        _check_divisors(a, "var_div", self.bound,
                        "var_div divisor %d exceeds range table bound %d; "
                        "decompose into limbs or raise lookup_bits")
        c = (2 * num + a) // (2 * a)
        return c, 2 * num + a - 2 * a * c


class VarDivWideGadget(Gadget):
    """c = round(b / a) for divisors beyond the range table (paper §5.1).

    When ``a`` exceeds the table bound N, the remainder ``r in [0, 2a)``
    and the strictness witness ``d = 2a - r - 1`` are decomposed into two
    limbs of ``lookup_bits`` each, every limb range-checked individually.
    Seven cells per op: a, b, c, r_lo, r_hi, d_lo, d_hi.
    """

    name = "var_div_wide"
    cells_per_op = 7
    operands, computed = (0, 1), (2, 3, 4, 5, 6)

    def _configure(self) -> None:
        b = self.builder
        bound = 1 << b.lookup_bits
        table = b.range_table(bound)
        self.limb = bound
        constraints = []
        for slot, refs in enumerate(self._slot_refs()):
            a, num, c, r_lo, r_hi, d_lo, d_hi = refs
            r = r_hi * Constant(self.limb) + r_lo
            d = d_hi * Constant(self.limb) + d_lo
            constraints.append(2 * num + a - Constant(2) * a * c - r)
            # r < 2a  <=>  2a - r - 1 = d >= 0 with d's limbs in range
            constraints.append(2 * a - r - Constant(1) - d)
            for idx, limb_ref in ((3, r_lo), (4, r_hi), (5, d_lo), (6, d_hi)):
                b.cs.add_lookup(
                    "var_div_wide/%d/limb%d" % (slot, idx),
                    inputs=[limb_ref + 1],
                    table=[Ref(table.col)],
                    selector=self.selector,
                )
        b.cs.create_gate("var_div_wide", constraints, selector=self.selector)

    def compute(self, a, num):
        _check_divisors(a, "var_div_wide", self.limb * self.limb,
                        "divisor %d exceeds two-limb capacity %d")
        c = (2 * num + a) // (2 * a)
        r = 2 * num + a - 2 * a * c
        d = 2 * a - r - 1
        return c, r % self.limb, r // self.limb, d % self.limb, d // self.limb


def _check_divisors(a: np.ndarray, name: str, bound: int, too_big: str) -> None:
    """Divisors must be positive and at most ``bound / 2``: the first one
    that is not raises."""
    bad = (a <= 0) | (2 * a > bound)
    if bad.any():
        first = a[np.argmax(bad)]
        if first <= 0:
            raise ValueError("%s divisor must be positive" % name)
        raise ValueError(too_big % (first, bound // 2))
