"""Linear layers: FullyConnected, Conv2D, DepthwiseConv2D, BatchMatMul.

All of them reduce to a shared matmul core with three implementations
(the ``linear`` layout choice, paper §6):

- ``dot_bias`` — chain the accumulator through DotProdBias rows (the
  paper's "first bias is zero, remaining biases are the accumulation");
- ``dot_sum``  — DotProd partials combined with the Sum gadget;
- ``freivalds`` — compute the product outside the circuit and verify
  ``C r = A (B r)`` with a random vector (Freivalds' algorithm, §6.1),
  turning an O(m·k·p) layout into three matrix–vector products.

Inputs and weights are at scale SF, biases at SF^2; the raw product is
rescaled once at the end (one DivRound row block), which is both cheaper
and more precise than rescaling each partial.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from repro.gadgets import (
    AddGadget,
    CircuitBuilder,
    DivRoundConstGadget,
    DotProdBiasGadget,
    DotProdGadget,
)
from repro.layers.base import Layer, LayoutChoices, arr_div_round, ceil_div
from repro.quantize import FixedPoint
from repro.tensor import Entry, ShapeTensor, Tensor

#: Freivalds challenge entries are bounded to keep raw values well below p.
_FREIVALDS_BITS = 16


def _freivalds_challenges(builder: CircuitBuilder, a: Tensor, b: Tensor,
                          count: int) -> List[Entry]:
    """Derive the random vector r from the committed operand values.

    Real halo2 would sample r from the transcript *after* committing A, B
    and C; we derive it from a hash of the operand values, which models
    the same "r is fixed only once the matrices are" property.
    """
    h = hashlib.blake2b(b"freivalds")
    for t in (a, b):
        for e in t.entries():
            h.update(int(e.value).to_bytes(16, "little", signed=True))
    seed = h.digest()
    out = []
    counter = 0
    while len(out) < count:
        block = hashlib.blake2b(seed + counter.to_bytes(4, "little")).digest()
        counter += 1
        for i in range(0, len(block) - 1, 2):
            if len(out) >= count:
                break
            r = 1 + (int.from_bytes(block[i : i + 2], "little") % ((1 << _FREIVALDS_BITS) - 1))
            out.append(builder.constant(r))
    return out


def _dot_gadget(builder: CircuitBuilder, choices: LayoutChoices):
    """The dot-product gadget of a layout choice (Freivalds' inner
    products, and a depthwise layer under ``freivalds``, chain their
    accumulator)."""
    if choices.linear == "dot_sum":
        return builder.gadget(DotProdGadget)
    return builder.gadget(DotProdBiasGadget)


def matmul_synthesize(
    builder: CircuitBuilder,
    choices: LayoutChoices,
    a: Tensor,
    b: Tensor,
    bias: Optional[Tensor],
) -> Tensor:
    """C = A @ B (+ bias), rescaled to scale_bits; A is (m, k), B is (k, p)."""
    m, k = a.shape
    k2, p = b.shape
    if k != k2:
        raise ValueError("matmul shape mismatch: %r @ %r" % (a.shape, b.shape))
    sf = builder.fp.factor
    rescale = builder.gadget(DivRoundConstGadget, divisor=sf)

    if choices.linear == "freivalds":
        raw = _freivalds_synthesize(builder, a, b, bias).entries()
    else:
        # dot (i, j) is row i of A with column j of B, row-major
        raw = _dot_gadget(builder, choices).dots(
            a, b.transpose(), None if bias is None else bias.entries())
    return Tensor.from_entries(rescale.assign_many(raw), (m, p))


def _freivalds_synthesize(builder, a: Tensor, b: Tensor,
                          bias: Optional[Tensor]) -> Tensor:
    """Raw C entries verified with Freivalds' check C r = A (B r) + bias r."""
    m, k = a.shape
    _, p = b.shape
    if builder.counting:
        c, r = ShapeTensor((m, p)), ShapeTensor((p,)).entries()
    else:
        raw_vals = a.values() @ b.values()
        if bias is not None:
            raw_vals = raw_vals + np.asarray(bias.values()).reshape(1, p)
        c = Tensor.from_values(raw_vals)
        r = _freivalds_challenges(builder, a, b, p)
    dot = builder.gadget(DotProdBiasGadget)
    # Br: one dot of length p per row of B; A(Br): one of length k per
    # row of A
    br = dot.dots(b, Tensor.from_entries(r, (1, p)))
    abr = dot.dots(a, Tensor.from_entries(br, (1, k)))
    # bias . r, then Cr: one dot of length p per row of C (this
    # materializes C's entries)
    rows = c if bias is None else Tensor.concat([bias.reshape(1, p), c])
    crs = dot.dots(rows, Tensor.from_entries(r, (1, p)))
    if bias is not None:
        bias_r, crs = crs[0], crs[1:]
        rhs = builder.gadget(AddGadget).assign_many(abr, bias_r)
    else:
        rhs = abr
    if not builder.counting:
        builder.copy(crs, rhs)
    return c


def matmul_fixed(a: np.ndarray, b: np.ndarray, bias: Optional[np.ndarray],
                 fp: FixedPoint) -> np.ndarray:
    """Exact fixed-point reference of the matmul core."""
    raw = np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)
    if bias is not None:
        raw = raw + np.asarray(bias, dtype=object).reshape(1, -1)
    return arr_div_round(raw, fp.factor)


class FullyConnectedLayer(Layer):
    """y = x @ W + b with W of shape (in, units)."""

    kind = "fully_connected"
    param_names = ("weight", "bias")

    @property
    def units(self) -> int:
        return self.attrs["units"]

    def output_shape(self, input_shapes):
        return tuple(input_shapes[0][:-1]) + (self.units,)

    def quantize_params(self, params, fp):
        out = {"weight": fp.encode_array(params["weight"])}
        fp2 = FixedPoint(2 * fp.scale_bits)
        out["bias"] = fp2.encode_array(params["bias"])
        return out

    def forward_float(self, inputs, params):
        return inputs[0] @ params["weight"] + params["bias"]

    def forward_fixed(self, inputs, params, fp):
        x = inputs[0]
        lead = x.shape[:-1]
        flat = np.asarray(x, dtype=object).reshape(-1, x.shape[-1])
        out = matmul_fixed(flat, params["weight"], params["bias"], fp)
        return out.reshape(lead + (self.units,))

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        a = x.reshape(-1, x.shape[-1])
        out = matmul_synthesize(builder, choices, a, params["weight"],
                                params["bias"])
        return out.reshape(*(x.shape[:-1] + (self.units,)))


def _conv_geometry(h, w, kh, kw, stride, padding):
    if padding == "same":
        oh, ow = ceil_div(h, stride), ceil_div(w, stride)
        pad_h = max((oh - 1) * stride + kh - h, 0)
        pad_w = max((ow - 1) * stride + kw - w, 0)
        pads = (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)
    elif padding == "valid":
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        pads = (0, 0, 0, 0)
    else:
        raise ValueError("padding must be 'same' or 'valid'")
    return oh, ow, pads


def _im2col_values(x: np.ndarray, kh, kw, stride, pads):
    top, bottom, left, right = pads
    x = np.pad(x, ((top, bottom), (left, right), (0, 0)),
               constant_values=0)
    h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = np.empty((oh * ow, kh * kw * c), dtype=object)
    idx = 0
    for i in range(oh):
        for j in range(ow):
            patch = x[i * stride : i * stride + kh,
                      j * stride : j * stride + kw, :]
            cols[idx] = patch.reshape(-1)
            idx += 1
    return cols, oh, ow


class Conv2DLayer(Layer):
    """2D convolution, NHWC without the batch dim: input (h, w, c_in)."""

    kind = "conv2d"
    param_names = ("weight", "bias")

    @property
    def stride(self):
        return self.attrs.get("stride", 1)

    @property
    def padding(self):
        return self.attrs.get("padding", "same")

    def _geometry(self, input_shape, weight_shape):
        h, w, _ = input_shape
        kh, kw = weight_shape[:2]
        return _conv_geometry(h, w, kh, kw, self.stride, self.padding)

    def output_shape(self, input_shapes):
        kh = self.attrs["kernel"][0]
        kw = self.attrs["kernel"][1]
        cout = self.attrs["filters"]
        h, w, _ = input_shapes[0]
        oh, ow, _ = _conv_geometry(h, w, kh, kw, self.stride, self.padding)
        return (oh, ow, cout)

    def quantize_params(self, params, fp):
        fp2 = FixedPoint(2 * fp.scale_bits)
        return {
            "weight": fp.encode_array(params["weight"]),
            "bias": fp2.encode_array(params["bias"]),
        }

    def forward_float(self, inputs, params):
        x = np.asarray(inputs[0], dtype=np.float64)
        w = np.asarray(params["weight"], dtype=np.float64)
        kh, kw, cin, cout = w.shape
        oh, ow, pads = self._geometry(x.shape, w.shape)
        cols, oh, ow = _im2col_values(x, kh, kw, self.stride, pads)
        out = cols.astype(np.float64) @ w.reshape(-1, cout) + params["bias"]
        return out.reshape(oh, ow, cout)

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        w = params["weight"]
        kh, kw, cin, cout = w.shape
        oh, ow, pads = self._geometry(x.shape, w.shape)
        cols, oh, ow = _im2col_values(x, kh, kw, self.stride, pads)
        out = matmul_fixed(cols, np.asarray(w, dtype=object).reshape(-1, cout),
                           params["bias"], fp)
        return out.reshape(oh, ow, cout)

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        w = params["weight"]
        kh, kw, cin, cout = w.shape
        oh, ow, pads = self._geometry(x.shape, w.shape)
        top, bottom, left, right = pads
        padded = x.pad(((top, bottom), (left, right), (0, 0)), builder.zero())
        # im2col: one (kh, kw, cin) patch per output position
        a = padded.windows(kh, kw, self.stride).transpose((0, 1, 3, 4, 2))
        a = a.reshape(oh * ow, kh * kw * cin)
        b = w.reshape(kh * kw * cin, cout)
        out = matmul_synthesize(builder, choices, a, b, params["bias"])
        return out.reshape(oh, ow, cout)


class DepthwiseConv2DLayer(Layer):
    """Depthwise 2D convolution: weight (kh, kw, c_in, multiplier)."""

    kind = "depthwise_conv2d"
    param_names = ("weight", "bias")

    @property
    def stride(self):
        return self.attrs.get("stride", 1)

    @property
    def padding(self):
        return self.attrs.get("padding", "same")

    def output_shape(self, input_shapes):
        kh, kw = self.attrs["kernel"]
        mult = self.attrs.get("multiplier", 1)
        h, w, cin = input_shapes[0]
        oh, ow, _ = _conv_geometry(h, w, kh, kw, self.stride, self.padding)
        return (oh, ow, cin * mult)

    def quantize_params(self, params, fp):
        fp2 = FixedPoint(2 * fp.scale_bits)
        return {
            "weight": fp.encode_array(params["weight"]),
            "bias": fp2.encode_array(params["bias"]),
        }

    def _forward(self, x, w, bias, fixed, fp=None):
        kh, kw, cin, mult = w.shape
        h, w_in, _ = x.shape
        oh, ow, pads = _conv_geometry(h, w_in, kh, kw, self.stride, self.padding)
        top, bottom, left, right = pads
        xp = np.pad(x, ((top, bottom), (left, right), (0, 0)), constant_values=0)
        out = np.empty((oh, ow, cin * mult), dtype=object if fixed else np.float64)
        for c in range(cin):
            for q in range(mult):
                kernel = w[:, :, c, q].reshape(-1)
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[i * self.stride : i * self.stride + kh,
                                   j * self.stride : j * self.stride + kw,
                                   c].reshape(-1)
                        raw = int(np.dot(patch, kernel)) if fixed else float(
                            np.dot(patch.astype(np.float64),
                                   kernel.astype(np.float64)))
                        if fixed:
                            from repro.quantize import div_round

                            out[i, j, c * mult + q] = div_round(
                                raw + int(bias[c * mult + q]), fp.factor)
                        else:
                            out[i, j, c * mult + q] = raw + bias[c * mult + q]
        return out

    def forward_float(self, inputs, params):
        return self._forward(
            np.asarray(inputs[0], dtype=np.float64),
            np.asarray(params["weight"], dtype=np.float64),
            np.asarray(params["bias"], dtype=np.float64),
            fixed=False,
        )

    def forward_fixed(self, inputs, params, fp):
        return self._forward(
            np.asarray(inputs[0], dtype=object),
            np.asarray(params["weight"], dtype=object),
            np.asarray(params["bias"], dtype=object),
            fixed=True,
            fp=fp,
        )

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        w = params["weight"]
        kh, kw, cin, mult = w.shape
        h, w_in, _ = x.shape
        oh, ow, pads = _conv_geometry(h, w_in, kh, kw, self.stride, self.padding)
        top, bottom, left, right = pads
        padded = x.pad(((top, bottom), (left, right), (0, 0)), builder.zero())
        rescale = builder.gadget(DivRoundConstGadget, divisor=builder.fp.factor)
        # one (kh, kw) patch per (position, channel), one kernel per
        # (channel, multiplier); outputs come out (oh, ow, cin*mult) row-major
        windows = padded.windows(kh, kw, self.stride).reshape(
            oh * ow, cin, kh * kw)
        kernels = w.transpose((2, 3, 0, 1)).reshape(cin * mult, kh * kw)
        channel = np.arange(cin)[:, None]
        raws = _dot_gadget(builder, choices).dots(
            windows, kernels, params["bias"].entries(),
            ((np.arange(oh * ow)[:, None, None], channel),
             channel * mult + np.arange(mult)))
        return Tensor.from_entries(rescale.assign_many(raws),
                                   (oh, ow, cin * mult))


class BatchMatMulLayer(Layer):
    """C[b] = A[b] @ B[b] for stacked matrices; no bias."""

    kind = "batch_matmul"

    def output_shape(self, input_shapes):
        a, b = input_shapes
        return tuple(a[:-1]) + (b[-1],)

    def forward_float(self, inputs, params):
        return np.matmul(np.asarray(inputs[0], dtype=np.float64),
                         np.asarray(inputs[1], dtype=np.float64))

    def forward_fixed(self, inputs, params, fp):
        a = np.asarray(inputs[0], dtype=object)
        b = np.asarray(inputs[1], dtype=object)
        lead = a.shape[:-2]
        m, k = a.shape[-2:]
        p = b.shape[-1]
        fa = a.reshape((-1, m, k))
        fb = b.reshape((-1, k, p))
        out = np.empty((fa.shape[0], m, p), dtype=object)
        for i in range(fa.shape[0]):
            out[i] = matmul_fixed(fa[i], fb[i], None, fp)
        return out.reshape(lead + (m, p))

    def synthesize(self, builder, inputs, params, choices):
        a, b = inputs
        lead = a.shape[:-2]
        m, k = a.shape[-2:]
        p = b.shape[-1]
        fa = a.reshape(-1, m, k)
        fb = b.reshape(-1, k, p)
        outs = builder.repeat(fa.shape[0], lambda i: matmul_synthesize(
            builder, choices, fa[i], fb[i], None))
        return Tensor.stack(outs, axis=0).reshape(*(lead + (m, p)))
