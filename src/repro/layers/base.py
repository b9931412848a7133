"""Layer base class, registry, and layout choices.

A layer owns three views of one ML operation:

- ``forward_float``  — numpy float32/64 reference semantics;
- ``forward_fixed``  — exact fixed-point reference semantics, bit-for-bit
  identical to what the circuit computes (tests enforce this);
- ``synthesize``     — lay the operation out as gadget rows.  The same
  code is the physical-layout simulator: on a counting builder, with
  :class:`~repro.tensor.ShapeTensor` operands, it claims the rows,
  gadgets and tables it would fill, at a cost per layer, not per element.

The :class:`LayoutChoices` knobs select among equivalent gadget
implementations; the optimizer enumerates them as *logical layouts*
(paper §7.2), with the pruning heuristic of one choice per layer family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, Type

import numpy as np

from repro.gadgets import CircuitBuilder
from repro.quantize import FixedPoint, div_round
from repro.tensor import Tensor

#: kind -> layer class
layer_registry: Dict[str, Type["Layer"]] = {}


@dataclass(frozen=True)
class LayoutChoices:
    """One logical layout: an implementation choice per layer family.

    - ``linear``: 'dot_bias' (chained accumulator), 'dot_sum' (partials +
      Sum gadget), or 'freivalds' (randomized matmul verification).
    - ``relu``: 'lookup' table or 'bitdecomp' bit decomposition.
    - ``arithmetic``: 'custom' packed gadgets or 'dotprod' reusing the
      dot-product constraint (paper §5.1's trade-off).
    """

    linear: str = "dot_bias"
    relu: str = "lookup"
    arithmetic: str = "custom"
    relu_bits: int = 16

    def replace(self, **kw) -> "LayoutChoices":
        return replace(self, **kw)

    LINEAR_OPTIONS = ("dot_bias", "dot_sum", "freivalds")
    RELU_OPTIONS = ("lookup", "bitdecomp")
    ARITHMETIC_OPTIONS = ("custom", "dotprod")


class Layer:
    """Base class; subclasses register themselves by ``kind``."""

    kind = "abstract"
    #: names of parameter tensors (weights) this layer expects.
    param_names: Tuple[str, ...] = ()

    def __init__(self, name: str = "", **attrs):
        self.name = name or self.kind
        self.attrs = attrs

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.kind != "abstract":
            layer_registry[cls.kind] = cls

    # -- shape & reference semantics ----------------------------------------

    def output_shape(self, input_shapes: List[Tuple[int, ...]]) -> Tuple[int, ...]:
        raise NotImplementedError

    def forward_float(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        raise NotImplementedError

    def forward_fixed(
        self,
        inputs: List[np.ndarray],
        params: Dict[str, np.ndarray],
        fp: FixedPoint,
    ) -> np.ndarray:
        raise NotImplementedError

    # -- circuit view -----------------------------------------------------------

    def synthesize(
        self,
        builder: CircuitBuilder,
        inputs: List[Tensor],
        params: Dict[str, Tensor],
        choices: LayoutChoices,
    ) -> Tensor:
        raise NotImplementedError

    def quantize_params(
        self, params: Dict[str, np.ndarray], fp: FixedPoint
    ) -> Dict[str, np.ndarray]:
        """Default parameter quantization: everything at scale_bits."""
        return {k: fp.encode_array(v) for k, v in params.items()}

    def quantized_shapes(
        self, shapes: Dict[str, Tuple[int, ...]]
    ) -> Dict[str, Tuple[int, ...]]:
        """Shapes of :meth:`quantize_params`' output for parameters of
        these shapes: what a counting walk synthesizes against."""
        return shapes

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


# -- shared fixed-point helpers ------------------------------------------------


def arr_div_round(arr: np.ndarray, divisor: int) -> np.ndarray:
    """Elementwise div_round on an object-int array."""
    out = np.empty(arr.shape, dtype=object)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = div_round(int(flat_in[i]), divisor)
    return out


def arr_int(x) -> np.ndarray:
    """Coerce to an object-int ndarray."""
    return np.asarray(x, dtype=object)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)
