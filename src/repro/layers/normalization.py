"""Normalization layers: BatchNorm (folded), LayerNorm, RMSNorm."""

from __future__ import annotations

import numpy as np

from repro.gadgets import (
    AddGadget,
    DivRoundConstGadget,
    MulGadget,
    PointwiseGadget,
    SquareGadget,
    SubGadget,
    SumGadget,
)
from repro.gadgets.nonlinear import fixed_eval
from repro.layers.base import Layer, arr_div_round
from repro.quantize import FixedPoint, div_round
from repro.tensor import Tensor


class BatchNormLayer(Layer):
    """Inference-time batch normalization, folded to y = x*scale + offset.

    The folding happens at quantization time: scale = gamma/sqrt(var+eps),
    offset = beta - mean*scale, so the circuit is one Mul and one Add per
    element.
    """

    kind = "batch_norm"
    param_names = ("gamma", "beta", "mean", "variance")

    @property
    def eps(self) -> float:
        return self.attrs.get("eps", 1e-3)

    def _folded(self, params):
        scale = params["gamma"] / np.sqrt(params["variance"] + self.eps)
        offset = params["beta"] - params["mean"] * scale
        return scale, offset

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        scale, offset = self._folded(params)
        return inputs[0] * scale + offset

    def quantize_params(self, params, fp):
        scale, offset = self._folded(params)
        return {"scale": fp.encode_array(scale), "offset": fp.encode_array(offset)}

    def quantized_shapes(self, shapes):
        return {"scale": shapes["gamma"], "offset": shapes["gamma"]}

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        scale = np.broadcast_to(params["scale"], x.shape)
        offset = np.broadcast_to(params["offset"], x.shape)
        return arr_div_round(x * scale, fp.factor) + offset

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        scale = params["scale"].broadcast_to(x.shape)
        offset = params["offset"].broadcast_to(x.shape)
        mul = builder.gadget(MulGadget)
        add = builder.gadget(AddGadget)
        scaled = mul.assign_many(x.entries(), scale.entries())
        outs = add.assign_many(scaled, offset.entries())
        return Tensor.from_entries(outs, x.shape)


class LayerNormLayer(Layer):
    """Layer normalization over the last axis with learned gamma/beta."""

    kind = "layer_norm"
    param_names = ("gamma", "beta")

    @property
    def eps(self) -> float:
        return self.attrs.get("eps", 1e-3)

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        x = np.asarray(inputs[0], dtype=np.float64)
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + self.eps) * params["gamma"] + params["beta"]

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        length = x.shape[-1]
        eps_fixed = fp.encode(self.eps)
        flat = x.reshape(-1, length)
        out = np.empty(flat.shape, dtype=object)
        gamma, beta = params["gamma"], params["beta"]
        for row in range(flat.shape[0]):
            vec = [int(v) for v in flat[row]]
            mean = div_round(sum(vec), length)
            d = [v - mean for v in vec]
            sq = [div_round(v * v, fp.factor) for v in d]
            var = div_round(sum(sq), length)
            r = fixed_eval("rsqrt", var + eps_fixed, fp)
            for i in range(length):
                normed = div_round(d[i] * r, fp.factor)
                scaled = div_round(normed * int(gamma[i]), fp.factor)
                out[row, i] = scaled + int(beta[i])
        return out.reshape(x.shape)

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        length = x.shape[-1]
        flat = x.reshape(-1, length)
        summed = builder.gadget(SumGadget)
        mean_div = builder.gadget(DivRoundConstGadget, divisor=length)
        sub = builder.gadget(SubGadget)
        square = builder.gadget(SquareGadget)
        rsqrt = builder.gadget(PointwiseGadget, fn_name="rsqrt")
        mul = builder.gadget(MulGadget)
        add = builder.gadget(AddGadget)
        eps_entry = builder.constant(builder.fp.encode(self.eps))
        gamma = params["gamma"].entries()
        beta = params["beta"].entries()

        def normalize(row):
            vec = flat[row].entries()
            (mean,) = mean_div.assign_row([(summed.sum_vector(vec),)])
            d = sub.assign_many(vec, mean)
            sq = square.assign_many(d)
            (var,) = mean_div.assign_row([(summed.sum_vector(sq),)])
            (var_eps,) = add.assign_row([(var, eps_entry)])
            (r,) = rsqrt.assign_row([(var_eps,)])
            normed = mul.assign_many(d, r)
            scaled = mul.assign_many(normed, gamma)
            return Tensor.from_entries(add.assign_many(scaled, beta), (length,))

        rows = builder.repeat(flat.shape[0], normalize)
        return Tensor.stack(rows).reshape(x.shape)


class RMSNormLayer(Layer):
    """Root-mean-square normalization (no mean subtraction)."""

    kind = "rms_norm"
    param_names = ("gamma",)

    @property
    def eps(self) -> float:
        return self.attrs.get("eps", 1e-3)

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        x = np.asarray(inputs[0], dtype=np.float64)
        ms = (x ** 2).mean(axis=-1, keepdims=True)
        return x / np.sqrt(ms + self.eps) * params["gamma"]

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        length = x.shape[-1]
        eps_fixed = fp.encode(self.eps)
        flat = x.reshape(-1, length)
        out = np.empty(flat.shape, dtype=object)
        gamma = params["gamma"]
        for row in range(flat.shape[0]):
            vec = [int(v) for v in flat[row]]
            sq = [div_round(v * v, fp.factor) for v in vec]
            ms = div_round(sum(sq), length)
            r = fixed_eval("rsqrt", ms + eps_fixed, fp)
            for i in range(length):
                normed = div_round(vec[i] * r, fp.factor)
                out[row, i] = div_round(normed * int(gamma[i]), fp.factor)
        return out.reshape(x.shape)

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        length = x.shape[-1]
        flat = x.reshape(-1, length)
        summed = builder.gadget(SumGadget)
        mean_div = builder.gadget(DivRoundConstGadget, divisor=length)
        square = builder.gadget(SquareGadget)
        rsqrt = builder.gadget(PointwiseGadget, fn_name="rsqrt")
        mul = builder.gadget(MulGadget)
        add = builder.gadget(AddGadget)
        eps_entry = builder.constant(builder.fp.encode(self.eps))
        gamma = params["gamma"].entries()

        def normalize(row):
            vec = flat[row].entries()
            sq = square.assign_many(vec)
            (ms,) = mean_div.assign_row([(summed.sum_vector(sq),)])
            (ms_eps,) = add.assign_row([(ms, eps_entry)])
            (r,) = rsqrt.assign_row([(ms_eps,)])
            normed = mul.assign_many(vec, r)
            return Tensor.from_entries(mul.assign_many(normed, gamma), (length,))

        rows = builder.repeat(flat.shape[0], normalize)
        return Tensor.stack(rows).reshape(x.shape)
