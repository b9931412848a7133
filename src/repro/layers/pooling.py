"""Pooling layers: MaxPool2D, AvgPool2D, GlobalAvgPool (paper Table 3)."""

from __future__ import annotations

import numpy as np

from repro.gadgets import DivRoundConstGadget, MaxGadget, SumGadget
from repro.layers.base import Layer, arr_div_round
from repro.layers.linear import _conv_geometry
from repro.tensor import Tensor


class _Pool2D(Layer):
    @property
    def pool(self):
        return self.attrs.get("pool", 2)

    @property
    def stride(self):
        return self.attrs.get("stride", self.pool)

    def output_shape(self, input_shapes):
        h, w, c = input_shapes[0]
        oh, ow, _ = _conv_geometry(h, w, self.pool, self.pool, self.stride,
                                   "valid")
        return (oh, ow, c)

    def _windows_values(self, x: np.ndarray):
        h, w, c = x.shape
        oh, ow, _ = _conv_geometry(h, w, self.pool, self.pool, self.stride,
                                   "valid")
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    yield (i, j, ch), x[
                        i * self.stride : i * self.stride + self.pool,
                        j * self.stride : j * self.stride + self.pool,
                        ch,
                    ].reshape(-1)

    def _reduce_windows(self, builder, x: Tensor, reduce):
        """``reduce`` applied to every pooling window's entries, in
        (oh, ow, c) row-major order."""
        windows = x.windows(self.pool, self.pool, self.stride)
        windows = windows.reshape(-1, self.pool * self.pool)
        return builder.repeat(windows.shape[0],
                              lambda n: reduce(windows[n].entries()))


class MaxPool2DLayer(_Pool2D):
    kind = "max_pool2d"

    def forward_float(self, inputs, params):
        x = np.asarray(inputs[0], dtype=np.float64)
        out = np.empty(self.output_shape([x.shape]), dtype=np.float64)
        for (i, j, ch), window in self._windows_values(x):
            out[i, j, ch] = window.max()
        return out

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        out = np.empty(self.output_shape([x.shape]), dtype=object)
        for (i, j, ch), window in self._windows_values(x):
            out[i, j, ch] = max(int(v) for v in window)
        return out

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        outs = self._reduce_windows(builder, x,
                                    builder.gadget(MaxGadget).max_vector)
        return Tensor.from_entries(outs, self.output_shape([x.shape]))


class AvgPool2DLayer(_Pool2D):
    kind = "avg_pool2d"

    def forward_float(self, inputs, params):
        x = np.asarray(inputs[0], dtype=np.float64)
        out = np.empty(self.output_shape([x.shape]), dtype=np.float64)
        for (i, j, ch), window in self._windows_values(x):
            out[i, j, ch] = window.mean()
        return out

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        out = np.empty(self.output_shape([x.shape]), dtype=object)
        count = self.pool * self.pool
        sums = np.empty(out.shape, dtype=object)
        for (i, j, ch), window in self._windows_values(x):
            sums[i, j, ch] = sum(int(v) for v in window)
        return arr_div_round(sums, count)

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        summed = builder.gadget(SumGadget)
        div = builder.gadget(DivRoundConstGadget, divisor=self.pool * self.pool)
        sums = self._reduce_windows(builder, x, summed.sum_vector)
        return Tensor.from_entries(div.assign_many(sums),
                                   self.output_shape([x.shape]))


class GlobalAvgPoolLayer(Layer):
    """Mean over the spatial dims: (h, w, c) -> (c,)."""

    kind = "global_avg_pool"

    def output_shape(self, input_shapes):
        return (input_shapes[0][-1],)

    def forward_float(self, inputs, params):
        return np.asarray(inputs[0], dtype=np.float64).mean(axis=(0, 1))

    def forward_fixed(self, inputs, params, fp):
        x = np.asarray(inputs[0], dtype=object)
        h, w, c = x.shape
        sums = x.sum(axis=(0, 1))
        return arr_div_round(np.asarray(sums, dtype=object), h * w)

    def synthesize(self, builder, inputs, params, choices):
        x = inputs[0]
        h, w, c = x.shape
        summed = builder.gadget(SumGadget)
        div = builder.gadget(DivRoundConstGadget, divisor=h * w)
        sums = summed.sum_vectors(x.reshape(h * w, c).transpose().rows())
        return Tensor.from_entries(div.assign_many(sums), (c,))
