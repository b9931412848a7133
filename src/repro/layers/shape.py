"""Shape layers: free operations that only rearrange cell references.

Because tensors hold references to previously assigned cells, these
layers consume no rows and no new cells (paper §5.1, "shape operations").
"""

from __future__ import annotations

import numpy as np

from repro.layers.base import Layer
from repro.tensor import Tensor


class _FreeLayer(Layer):
    def forward_fixed(self, inputs, params, fp):
        return self.forward_float(inputs, params)


class ReshapeLayer(_FreeLayer):
    kind = "reshape"

    @property
    def shape(self):
        return tuple(self.attrs["shape"])

    def output_shape(self, input_shapes):
        target = list(self.shape)
        if -1 in target:
            total = int(np.prod(input_shapes[0]))
            known = -int(np.prod(target))
            target[target.index(-1)] = total // known
        return tuple(target)

    def forward_float(self, inputs, params):
        return np.reshape(inputs[0], self.output_shape([np.shape(inputs[0])]))

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0].reshape(self.output_shape([inputs[0].shape]))


class FlattenLayer(_FreeLayer):
    kind = "flatten"

    def output_shape(self, input_shapes):
        return (int(np.prod(input_shapes[0])),)

    def forward_float(self, inputs, params):
        return np.reshape(inputs[0], -1)

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0].flatten()


class TransposeLayer(_FreeLayer):
    kind = "transpose"

    @property
    def axes(self):
        return self.attrs.get("axes")

    def output_shape(self, input_shapes):
        shape = input_shapes[0]
        axes = self.axes or tuple(reversed(range(len(shape))))
        return tuple(shape[a] for a in axes)

    def forward_float(self, inputs, params):
        return np.transpose(inputs[0], self.axes)

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0].transpose(self.axes)


class SqueezeLayer(_FreeLayer):
    kind = "squeeze"

    def output_shape(self, input_shapes):
        axis = self.attrs.get("axis")
        shape = list(input_shapes[0])
        if axis is None:
            return tuple(s for s in shape if s != 1)
        shape.pop(axis)
        return tuple(shape)

    def forward_float(self, inputs, params):
        return np.squeeze(inputs[0], axis=self.attrs.get("axis"))

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0].squeeze(self.attrs.get("axis"))


class ExpandDimsLayer(_FreeLayer):
    kind = "expand_dims"

    def output_shape(self, input_shapes):
        shape = list(input_shapes[0])
        shape.insert(self.attrs["axis"], 1)
        return tuple(shape)

    def forward_float(self, inputs, params):
        return np.expand_dims(inputs[0], self.attrs["axis"])

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0].expand_dims(self.attrs["axis"])


class ConcatLayer(_FreeLayer):
    kind = "concat"

    @property
    def axis(self):
        return self.attrs.get("axis", 0)

    def output_shape(self, input_shapes):
        out = list(input_shapes[0])
        out[self.axis] = sum(s[self.axis] for s in input_shapes)
        return tuple(out)

    def forward_float(self, inputs, params):
        return np.concatenate(inputs, axis=self.axis)

    def synthesize(self, builder, inputs, params, choices):
        return Tensor.concat(inputs, axis=self.axis)


class SliceLayer(_FreeLayer):
    """Slice with per-axis (start, stop) pairs; None keeps the axis."""

    kind = "slice"

    def _slices(self, ndim):
        spec = self.attrs["slices"]
        out = []
        for i in range(ndim):
            if i < len(spec) and spec[i] is not None:
                out.append(slice(spec[i][0], spec[i][1]))
            else:
                out.append(slice(None))
        return tuple(out)

    def output_shape(self, input_shapes):
        dummy = np.empty(input_shapes[0], dtype=np.int8)
        return dummy[self._slices(len(input_shapes[0]))].shape

    def forward_float(self, inputs, params):
        return inputs[0][self._slices(np.ndim(inputs[0]))]

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0][self._slices(inputs[0].ndim)]


class PadLayer(_FreeLayer):
    """Zero padding; references a single shared zero cell."""

    kind = "pad"

    @property
    def pad_width(self):
        return tuple(tuple(p) for p in self.attrs["pad_width"])

    def output_shape(self, input_shapes):
        return tuple(
            s + a + b for s, (a, b) in zip(input_shapes[0], self.pad_width)
        )

    def forward_float(self, inputs, params):
        return np.pad(inputs[0], self.pad_width, constant_values=0)

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0].pad(self.pad_width, builder.zero())


class GatherLayer(_FreeLayer):
    """Embedding lookup: select rows of the weight matrix by fixed indices.

    The token ids are circuit-shaping data (fixed-length NLP inputs,
    §4.1), so the gather is a pure reference selection over the embedding
    parameter tensor — free, like every shape operation.
    """

    kind = "gather"
    param_names = ("table",)

    @property
    def indices(self):
        return list(self.attrs["indices"])

    def output_shape(self, input_shapes):
        return (len(self.indices),) + tuple(self.attrs["table_shape"][1:])

    def forward_float(self, inputs, params):
        return np.asarray(params["table"])[self.indices]

    def forward_fixed(self, inputs, params, fp):
        return np.asarray(params["table"], dtype=object)[self.indices]

    def synthesize(self, builder, inputs, params, choices):
        table = params["table"]
        rows = [table[i] for i in self.indices]
        return Tensor.stack(rows, axis=0)


class IdentityLayer(_FreeLayer):
    kind = "identity"

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        return inputs[0]

    def synthesize(self, builder, inputs, params, choices):
        return inputs[0]


class SplitLayer(_FreeLayer):
    """Keep one section of an even split (multi-output graphs route each
    section through its own SplitLayer)."""

    kind = "split"

    def output_shape(self, input_shapes):
        axis = self.attrs.get("axis", 0)
        sections = self.attrs["sections"]
        shape = list(input_shapes[0])
        shape[axis] //= sections
        return tuple(shape)

    def forward_float(self, inputs, params):
        axis = self.attrs.get("axis", 0)
        parts = np.split(inputs[0], self.attrs["sections"], axis=axis)
        return parts[self.attrs.get("index", 0)]

    def synthesize(self, builder, inputs, params, choices):
        parts = inputs[0].split(self.attrs["sections"],
                                self.attrs.get("axis", 0))
        return parts[self.attrs.get("index", 0)]
