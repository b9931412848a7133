"""Activation layers: pointwise non-linearities applied to a tensor.

Every registered non-linearity becomes a layer kind (``relu``,
``sigmoid``, ...).  ReLU additionally honours the ``relu`` layout choice:
the lookup table or the bit-decomposition alternative (paper §3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.gadgets import BitDecompReluGadget, CircuitBuilder, PointwiseGadget
from repro.gadgets.nonlinear import NONLINEAR_FUNCTIONS, fixed_eval
from repro.layers.base import Layer, LayoutChoices
from repro.quantize import FixedPoint
from repro.tensor import Tensor


class ActivationLayer(Layer):
    """Apply a registered pointwise function elementwise."""

    kind = "abstract"  # concrete subclasses register per fn_name
    fn_name = ""  # set by subclasses

    def output_shape(self, input_shapes):
        return input_shapes[0]

    def forward_float(self, inputs, params):
        fn = np.vectorize(NONLINEAR_FUNCTIONS[self.fn_name], otypes=[np.float64])
        return fn(np.asarray(inputs[0], dtype=np.float64))

    def forward_fixed(self, inputs, params, fp: FixedPoint):
        arr = inputs[0]
        out = np.empty(arr.shape, dtype=object)
        flat_in, flat_out = arr.reshape(-1), out.reshape(-1)
        for i in range(flat_in.size):
            flat_out[i] = fixed_eval(self.fn_name, int(flat_in[i]), fp)
        return out

    def _use_bitdecomp(self, choices: LayoutChoices) -> bool:
        return self.fn_name == "relu" and choices.relu == "bitdecomp"

    def synthesize(self, builder: CircuitBuilder, inputs: List[Tensor],
                   params, choices: LayoutChoices) -> Tensor:
        x = inputs[0]
        if self._use_bitdecomp(choices):
            gadget = builder.gadget(BitDecompReluGadget, bits=choices.relu_bits)
        else:
            gadget = builder.gadget(PointwiseGadget, fn_name=self.fn_name)
        return Tensor.from_entries(gadget.apply_vector(x.entries()), x.shape)


def _make_activation(fn_name: str):
    cls = type(
        "%sLayer" % fn_name.title().replace("_", ""),
        (ActivationLayer,),
        {"kind": fn_name, "fn_name": fn_name},
    )
    return cls


#: One layer class per registered non-linearity.
ACTIVATION_LAYERS = {
    name: _make_activation(name) for name in sorted(NONLINEAR_FUNCTIONS)
}
