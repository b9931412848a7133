"""Model specification: a fixed-function layer graph (paper §4.1).

A :class:`ModelSpec` is the compiler's input: named graph inputs, a
topologically ordered list of :class:`LayerSpec`, and the output names.
Parameters are either materialized numpy arrays (runnable models) or bare
shape tuples (shape-only specs for the paper-scale models, which the
optimizer can cost without ever allocating 81M weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.layers import Layer, layer_registry
from repro.resilience.errors import SpecError, UnknownNameError

ParamValue = Union[np.ndarray, Tuple[int, ...]]


@dataclass
class LayerSpec:
    """One node of the graph."""

    name: str
    kind: str
    inputs: List[str]
    attrs: Dict[str, object] = field(default_factory=dict)
    params: Dict[str, ParamValue] = field(default_factory=dict)

    def layer(self) -> Layer:
        try:
            cls = layer_registry[self.kind]
        except KeyError:
            raise UnknownNameError(
                "unsupported layer kind %r (supported: %d kinds)"
                % (self.kind, len(layer_registry)),
                layer=self.name, kind=self.kind,
            ) from None
        return cls(name=self.name, **self.attrs)

    def param_shapes(self) -> Dict[str, Tuple[int, ...]]:
        return {
            k: tuple(v) if isinstance(v, tuple) else tuple(np.shape(v))
            for k, v in self.params.items()
        }

    @property
    def materialized(self) -> bool:
        return all(isinstance(v, np.ndarray) for v in self.params.values())


@dataclass
class ModelSpec:
    """A whole model: inputs, layers in topological order, outputs."""

    name: str
    inputs: Dict[str, Tuple[int, ...]]
    layers: List[LayerSpec]
    outputs: List[str]

    def validate(self) -> None:
        """Check that the graph is well-formed and topologically ordered."""
        known = set(self.inputs)
        for spec in self.layers:
            for inp in spec.inputs:
                if inp not in known:
                    raise SpecError(
                        "layer %r reads %r before it is defined" % (spec.name, inp),
                        layer=spec.name, model=self.name,
                    )
            if spec.name in known:
                raise SpecError("duplicate node name %r" % spec.name,
                                layer=spec.name, model=self.name)
            spec.layer()  # raises on unknown kind / bad attrs
            known.add(spec.name)
        for out in self.outputs:
            if out not in known:
                raise SpecError("output %r is not produced" % out,
                                model=self.name, output=out)

    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Shape of every node, propagated through the graph."""
        shapes: Dict[str, Tuple[int, ...]] = dict(self.inputs)
        for spec in self.layers:
            layer = spec.layer()
            shapes[spec.name] = tuple(
                layer.output_shape([shapes[i] for i in spec.inputs])
            )
        return shapes

    @property
    def materialized(self) -> bool:
        return all(spec.materialized for spec in self.layers)

    # -- statistics (paper Table 5) -------------------------------------------

    def param_count(self) -> int:
        return sum(
            math.prod(shape)
            for spec in self.layers
            for shape in spec.param_shapes().values()
        )

    def flops(self) -> int:
        """Multiply-accumulate-style flop estimate per layer family."""
        total = 0
        shapes = self.shapes()
        for spec in self.layers:
            in_shapes = [shapes[i] for i in spec.inputs]
            out_shape = shapes[spec.name]
            out_n = int(np.prod(out_shape)) if out_shape else 1
            if spec.kind in ("fully_connected",):
                total += 2 * out_n * in_shapes[0][-1]
            elif spec.kind == "conv2d":
                kh, kw = spec.attrs["kernel"]
                cin = in_shapes[0][-1]
                total += 2 * out_n * kh * kw * cin
            elif spec.kind == "depthwise_conv2d":
                kh, kw = spec.attrs["kernel"]
                total += 2 * out_n * kh * kw
            elif spec.kind == "batch_matmul":
                total += 2 * out_n * in_shapes[0][-1]
            elif spec.kind in ("reshape", "transpose", "flatten", "squeeze",
                               "expand_dims", "concat", "slice", "pad",
                               "gather", "identity", "split"):
                continue
            else:
                total += out_n
        return total

    def summary(self) -> str:
        shapes = self.shapes()
        lines = ["%s: %d layers, %d params, %d flops"
                 % (self.name, len(self.layers), self.param_count(), self.flops())]
        for spec in self.layers:
            lines.append("  %-24s %-18s -> %r"
                         % (spec.name, spec.kind, shapes[spec.name]))
        return "\n".join(lines)
