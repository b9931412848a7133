"""Cell-reference tensors.

A :class:`Tensor` is an n-dimensional view over *entries*, where each
entry carries a fixed-point value and (once materialized) the grid cell
holding it.  Shape operations — reshape, transpose, slice, concat, pad,
split — only rearrange entry references and are therefore free with
respect to proving time (paper §5.1, "shape operations").  A
:class:`ShapeTensor` is the same interface over a bare shape, for the
counting walk that sizes a circuit without a witness.
"""

from repro.tensor.tensor import (
    PLACEHOLDER,
    Cell,
    Entry,
    Lanes,
    ShapeTensor,
    Tensor,
)

__all__ = ["Cell", "Entry", "Tensor", "ShapeTensor", "Lanes", "PLACEHOLDER"]
