"""Arithmetic layers: elementwise tensor ops and reductions (paper §6.1).

Each elementwise layer supports two implementations, matching the paper's
observation that arithmetic layers "can be implemented with custom
gadgets or by repurposing the dot product gadget":

- ``custom``  — the packed arithmetic gadgets (several ops per row);
- ``dotprod`` — reuse the dot-product constraint (one op per row, plus a
  rescale row where needed), trading rows for fewer distinct constraints.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.gadgets import (
    AddGadget,
    CircuitBuilder,
    DivRoundConstGadget,
    DotProdBiasGadget,
    DotProdGadget,
    MulGadget,
    ScaleConstGadget,
    SquareGadget,
    SquaredDiffGadget,
    SubGadget,
    SumGadget,
    VarDivGadget,
)
from repro.layers.base import Layer, arr_div_round
from repro.quantize import div_round
from repro.tensor import Tensor


def _dot_rescaled(builder: CircuitBuilder, xs, ys):
    """round(x * y / SF) per pair on the dot-product constraint (the
    ``dotprod`` arithmetic choice): a DotProd row, then a rescale row."""
    dot = builder.gadget(DotProdGadget)
    rescale = builder.gadget(DivRoundConstGadget, divisor=builder.fp.factor)

    def product(i):
        (raw,) = dot.assign_row([([xs[i]], [ys[i]])])
        return rescale.assign_row([(raw,)])[0]

    return builder.repeat(len(xs), product)


class _ElementwiseBinary(Layer):
    """Shared machinery for binary elementwise layers."""

    def output_shape(self, input_shapes):
        return tuple(np.broadcast_shapes(*input_shapes))

    def _operands(self, inputs: List[Tensor]):
        """Both inputs broadcast to the output shape, as entry lists."""
        shape = np.broadcast_shapes(inputs[0].shape, inputs[1].shape)
        a, b = (t.broadcast_to(shape) for t in inputs)
        return a.entries(), b.entries(), shape


class AddLayer(_ElementwiseBinary):
    kind = "add"

    def forward_float(self, inputs, params):
        return inputs[0] + inputs[1]

    def forward_fixed(self, inputs, params, fp):
        return inputs[0] + inputs[1]

    def synthesize(self, builder, inputs, params, choices):
        xs, ys, shape = self._operands(inputs)
        if choices.arithmetic == "dotprod":
            g = builder.gadget(DotProdBiasGadget)
            one = builder.constant(1)
            outs = builder.repeat(
                len(xs), lambda i: g.assign_row([([xs[i]], [one], ys[i])])[0])
        else:
            outs = builder.gadget(AddGadget).assign_many(xs, ys)
        return Tensor.from_entries(outs, shape)


class SubLayer(_ElementwiseBinary):
    kind = "sub"

    def forward_float(self, inputs, params):
        return inputs[0] - inputs[1]

    def forward_fixed(self, inputs, params, fp):
        return inputs[0] - inputs[1]

    def synthesize(self, builder, inputs, params, choices):
        xs, ys, shape = self._operands(inputs)
        if choices.arithmetic == "dotprod":
            g = builder.gadget(DotProdBiasGadget)
            minus_one = builder.constant(-1)
            outs = builder.repeat(
                len(xs),
                lambda i: g.assign_row([([ys[i]], [minus_one], xs[i])])[0])
        else:
            outs = builder.gadget(SubGadget).assign_many(xs, ys)
        return Tensor.from_entries(outs, shape)


class MulLayer(_ElementwiseBinary):
    kind = "mul"

    def forward_float(self, inputs, params):
        return inputs[0] * inputs[1]

    def forward_fixed(self, inputs, params, fp):
        raw = inputs[0] * inputs[1]
        return arr_div_round(raw, fp.factor)

    def synthesize(self, builder, inputs, params, choices):
        xs, ys, shape = self._operands(inputs)
        if choices.arithmetic == "dotprod":
            outs = _dot_rescaled(builder, xs, ys)
        else:
            outs = builder.gadget(MulGadget).assign_many(xs, ys)
        return Tensor.from_entries(outs, shape)


class DivLayer(_ElementwiseBinary):
    """Elementwise fixed-point division; the divisor must be positive."""

    kind = "div"

    def forward_float(self, inputs, params):
        return inputs[0] / inputs[1]

    def forward_fixed(self, inputs, params, fp):
        a, b = inputs
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=object)
        a = np.broadcast_to(a, out.shape)
        b = np.broadcast_to(b, out.shape)
        flat_a, flat_b = a.reshape(-1), b.reshape(-1)
        flat_o = out.reshape(-1)
        for i in range(flat_o.size):
            flat_o[i] = div_round(int(flat_a[i]) * fp.factor, int(flat_b[i]))
        return out

    def synthesize(self, builder, inputs, params, choices):
        xs, ys, shape = self._operands(inputs)
        scale = builder.gadget(ScaleConstGadget, factor=builder.fp.factor)
        vdiv = builder.gadget(VarDivGadget)

        def divide(i):
            (num,) = scale.assign_row([(xs[i],)])
            return vdiv.assign_row([(ys[i], num)])[0]

        return Tensor.from_entries(builder.repeat(len(xs), divide), shape)


class SquareLayer(Layer):
    kind = "square"

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        return inputs[0] ** 2

    def forward_fixed(self, inputs, params, fp):
        return arr_div_round(inputs[0] * inputs[0], fp.factor)

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        xs = x.entries()
        if choices.arithmetic == "dotprod":
            outs = _dot_rescaled(builder, xs, xs)
        else:
            outs = builder.gadget(SquareGadget).assign_many(xs)
        return Tensor.from_entries(outs, x.shape)


class SquaredDifferenceLayer(_ElementwiseBinary):
    kind = "squared_difference"

    def forward_float(self, inputs, params):
        return (inputs[0] - inputs[1]) ** 2

    def forward_fixed(self, inputs, params, fp):
        diff = inputs[0] - inputs[1]
        return arr_div_round(diff * diff, fp.factor)

    def synthesize(self, builder, inputs, params, choices):
        xs, ys, shape = self._operands(inputs)
        if choices.arithmetic == "dotprod":
            bias_dot = builder.gadget(DotProdBiasGadget)
            dot = builder.gadget(DotProdGadget)
            rescale = builder.gadget(DivRoundConstGadget, divisor=builder.fp.factor)
            minus_one = builder.constant(-1)

            def squared_diff(i):
                (diff,) = bias_dot.assign_row([([ys[i]], [minus_one], xs[i])])
                (raw,) = dot.assign_row([([diff], [diff])])
                return rescale.assign_row([(raw,)])[0]

            outs = builder.repeat(len(xs), squared_diff)
        else:
            outs = builder.gadget(SquaredDiffGadget).assign_many(xs, ys)
        return Tensor.from_entries(outs, shape)


class ReduceSumLayer(Layer):
    """Sum over one axis (or everything when axis is None)."""

    kind = "reduce_sum"

    @property
    def axis(self):
        return self.attrs.get("axis")

    def output_shape(self, input_shapes):
        shape = input_shapes[0]
        if self.axis is None:
            return ()
        return tuple(s for i, s in enumerate(shape) if i != self.axis % len(shape))

    def forward_float(self, inputs, params):
        return np.sum(inputs[0], axis=self.axis)

    def forward_fixed(self, inputs, params, fp):
        return np.sum(inputs[0], axis=self.axis)

    def _vectors(self, x: Tensor) -> Tuple[Tensor, Tuple[int, ...]]:
        """The summed vectors as the rows of a matrix, and the out shape."""
        if self.axis is None:
            return x.reshape(1, x.size), ()
        axis = self.axis % x.ndim
        moved = x.transpose(
            [i for i in range(x.ndim) if i != axis] + [axis]
        )
        return moved.reshape(-1, moved.shape[-1]), moved.shape[:-1]

    def synthesize(self, builder, inputs, params, choices):
        vectors, out_shape = self._vectors(inputs[0])
        g = builder.gadget(SumGadget)
        outs = g.sum_vectors(vectors.rows())
        return Tensor.from_entries(outs, out_shape)


class ReduceMeanLayer(ReduceSumLayer):
    kind = "reduce_mean"

    def _count(self, shape):
        if self.axis is None:
            return int(np.prod(shape))
        return shape[self.axis % len(shape)]

    def forward_float(self, inputs, params):
        return np.mean(np.asarray(inputs[0], dtype=np.float64), axis=self.axis)

    def forward_fixed(self, inputs, params, fp):
        total = np.sum(inputs[0], axis=self.axis)
        return arr_div_round(np.asarray(total, dtype=object).reshape(
            np.shape(total)), self._count(inputs[0].shape))

    def synthesize(self, builder, inputs, params, choices):
        summed = super().synthesize(builder, inputs, params, choices)
        count = self._count(inputs[0].shape)
        g = builder.gadget(DivRoundConstGadget, divisor=count)
        return Tensor.from_entries(g.assign_many(summed.entries()),
                                   summed.shape)
