"""The softmax layer (paper §6.1, "Softmax").

A vector-valued non-linearity that cannot be a lookup table (the table
would need SF^n rows), so it is composed from the specialized gadgets:

1. shift by the vector max (numeric stability; softmax is shift
   invariant) — Max gadget tournament;
2. scaled exponential e^(x - max) * SF — the ``exp`` lookup table;
3. sum of the exponentials — Sum gadget;
4. divide with the *numerator scaled by SF* (not the sum divided by SF,
   which would destroy precision) — ScaleConst + VarDiv gadgets.
"""

from __future__ import annotations

import numpy as np

from repro.gadgets import (
    MaxGadget,
    PointwiseGadget,
    ScaleConstGadget,
    SubGadget,
    SumGadget,
    VarDivGadget,
    VarDivWideGadget,
)
from repro.gadgets.nonlinear import fixed_eval
from repro.layers.base import Layer
from repro.quantize import div_round
from repro.tensor import Tensor


def needs_wide_division(classes: int, scale_bits: int) -> bool:
    """Whether the sum of exponentials outgrows the shared range table.

    The table covers [0, 2^(scale_bits+3)); the divisor is at most
    classes * SF, so more than four classes needs the limb-decomposed
    division (paper §5.1's "decompose a into limbs").
    """
    return 2 * classes * (1 << scale_bits) > (1 << (scale_bits + 3))


class SoftmaxLayer(Layer):
    """Softmax over the last axis."""

    kind = "softmax"

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        x = np.asarray(inputs[0], dtype=np.float64)
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        out = np.empty(x.shape, dtype=object)
        flat = x.reshape(-1, x.shape[-1])
        flat_out = out.reshape(-1, x.shape[-1])
        for row in range(flat.shape[0]):
            vec = [int(v) for v in flat[row]]
            m = max(vec)
            exps = [fixed_eval("exp", v - m, fp) for v in vec]
            total = sum(exps)
            for i, e in enumerate(exps):
                flat_out[row, i] = div_round(e * fp.factor, total)
        return out

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        length = x.shape[-1]
        flat = x.reshape(-1, length)
        mx = builder.gadget(MaxGadget)
        sub = builder.gadget(SubGadget)
        exp = builder.gadget(PointwiseGadget, fn_name="exp")
        summed = builder.gadget(SumGadget)
        scale = builder.gadget(ScaleConstGadget, factor=builder.fp.factor)
        if needs_wide_division(length, builder.scale_bits):
            vdiv = builder.gadget(VarDivWideGadget)
        else:
            vdiv = builder.gadget(VarDivGadget)

        def softmax(row):
            vec = flat[row].entries()
            shifted = sub.assign_many(vec, mx.max_vector(vec))
            exps = exp.apply_vector(shifted)
            total = summed.sum_vector(exps)
            nums = scale.assign_many(exps)
            return Tensor.from_entries(vdiv.assign_many(total, nums), (length,))

        rows = builder.repeat(flat.shape[0], softmax)
        return Tensor.stack(rows).reshape(x.shape)
