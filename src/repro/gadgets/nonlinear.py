"""Pointwise non-linearity gadgets via lookup tables (paper §5.1).

All activation functions except ReLU are hard to express with polynomial
constraints, so each is enumerated in a two-column table over the whole
fixed-point input range; the gadget packs ``floor(N/2)`` (input, output)
pairs per row, each pair checked by its own lookup argument into the
shared table.  The scaled exponential ``exp(x) * SF`` that softmax needs
is simply the ``exp`` entry of this registry (paper §5.1, "specialized
operations").
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

from repro.halo2.expression import Ref
from repro.gadgets.base import Gadget
from repro.tensor import Entry


def _gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def _softplus(x: float) -> float:
    # numerically stable log(1 + e^x)
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


NONLINEAR_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "relu": lambda x: max(x, 0.0),
    "relu6": lambda x: min(max(x, 0.0), 6.0),
    "leaky_relu": lambda x: x if x >= 0 else 0.1 * x,
    "elu": lambda x: x if x >= 0 else math.expm1(x),
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)) if x > -30 else 0.0,
    "hard_sigmoid": lambda x: min(max(x / 6.0 + 0.5, 0.0), 1.0),
    "tanh": math.tanh,
    "exp": lambda x: math.exp(x) if x < 30 else math.exp(30),
    "gelu": _gelu,
    "silu": lambda x: x / (1.0 + math.exp(-x)) if x > -30 else 0.0,
    "hard_swish": lambda x: x * min(max(x / 6.0 + 0.5, 0.0), 1.0),
    "softplus": _softplus,
    "sqrt": lambda x: math.sqrt(x) if x > 0 else 0.0,
    "rsqrt": lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0,
    "reciprocal": lambda x: 1.0 / x if x != 0 else 0.0,
    "erf": math.erf,
    "log": lambda x: math.log(x) if x > 0 else 0.0,
    "mish": lambda x: x * math.tanh(_softplus(x)),
    "square_fn": lambda x: x * x,
}


def fixed_eval(fn_name: str, x_fixed: int, fp) -> int:
    """The exact fixed-point output a lookup table produces for an input.

    Shared by table construction (builder) and the layers' fixed-point
    reference semantics so the two can never drift apart.
    """
    fn = NONLINEAR_FUNCTIONS[fn_name]
    return fp.encode(fn(fp.decode(x_fixed)))


class PointwiseGadget(Gadget):
    """Apply one registered pointwise function; two cells per op."""

    name = "pointwise"
    cells_per_op = 2
    operands, computed, pads = (0,), (1,), True

    def __init__(self, builder, fn_name: str):
        if fn_name not in NONLINEAR_FUNCTIONS:
            raise KeyError(
                "unknown non-linearity %r; available: %s"
                % (fn_name, sorted(NONLINEAR_FUNCTIONS))
            )
        self.fn_name = fn_name
        super().__init__(builder)

    def _configure(self) -> None:
        b = self.builder
        self.table = b.nonlinear_table(self.fn_name)
        offset = self.table.offset
        for slot, (x, y) in enumerate(self._slot_refs()):
            b.cs.add_lookup(
                "pointwise/%s/%d" % (self.fn_name, slot),
                inputs=[x + offset, y],
                table=[Ref(self.table.in_col), Ref(self.table.out_col)],
                selector=self.selector,
            )

    def compute(self, x):
        return (self.table.apply(x),)

    def apply_vector(self, values: Sequence[Entry]) -> Sequence[Entry]:
        """Apply the function to a whole vector, packing rows."""
        return self.assign_many(values)
