"""Model synthesis: lay a whole model out as a circuit.

Walks the graph in topological order, quantizes inputs and parameters,
and calls each layer's ``synthesize``.  The resulting builder holds the
complete grid (gadget rows, lookup tables, copy constraints), ready for
keygen/prove.  One walk serves every batch size: a single inference is a
batch of one.  Requires a materialized model (mini-scale); paper-scale
models are sized by the same ``synthesize`` code run on a counting
builder over shapes (:mod:`repro.compiler.physical`), which is also how
this walk picks its ``k``.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.compiler.logical import LayoutPlan
from repro.compiler.physical import (
    PhysicalLayout,
    build_physical_layout,
    minimal_k,
    resolve_choices,
)
from repro.gadgets import CircuitBuilder
from repro.model.executor import run_fixed
from repro.model.spec import ModelSpec
from repro.obs.trace import get_tracer
from repro.resilience.errors import ResilienceError, SpecError
from repro.tensor import Tensor


def only_slot(slots: Sequence, model: str):
    """The batch-of-one view of a per-slot list; a multi-slot batch has
    no single answer, so it is refused instead of silently picking one."""
    if len(slots) != 1:
        raise SpecError(
            "this covers %d inference slots; index the per-slot list "
            "(slot_outputs) instead" % len(slots), model=model)
    return slots[0]


@dataclass
class SynthesizedModel:
    """A fully laid-out circuit holding one or more inferences of a model."""

    spec: ModelSpec
    layout: PhysicalLayout
    builder: CircuitBuilder
    #: Each inference slot's output tensors, in batch order.
    slot_outputs: List[Dict[str, Tensor]]

    @property
    def outputs(self) -> Dict[str, Tensor]:
        """The output tensors of a single-inference circuit."""
        return only_slot(self.slot_outputs, self.spec.name)

    def output_values(self) -> List[Dict[str, np.ndarray]]:
        """Each slot's output arrays, in batch order."""
        return [{name: t.values() for name, t in outputs.items()}
                for outputs in self.slot_outputs]

    def expose_outputs(self) -> None:
        """Make every slot's model outputs public inputs of the proof,
        one instance column per output tensor in (slot, output) order."""
        for outputs in self.slot_outputs:
            for name in self.spec.outputs:
                self.builder.expose(outputs[name].entries())


def synthesize_batch(
    spec: ModelSpec,
    batch_inputs: Sequence[Dict[str, np.ndarray]],
    plan=None,
    num_cols: int = 10,
    scale_bits: int = 5,
    lookup_bits: Optional[int] = None,
    k: Optional[int] = None,
    tracer=None,
) -> SynthesizedModel:
    """Lay out one or more inferences of a model in a single circuit.

    Weights are materialized once (in the vk-committed fixed columns) and
    the lookup tables are shared, so proving a batch amortizes everything
    but the per-inference gadget rows — the shape an audit log (or the
    proving service's coalesced micro-batches) wants.  ``k`` defaults to
    the minimal feasible grid for the batch; passing a larger ``k``
    reproduces fixed-configuration ablations.

    Spans (layout / witness / one per layer) go to ``tracer``, defaulting
    to the process tracer (a no-op unless tracing is enabled).  Each layer
    gets a builder region and a ``layer:<name>`` span; a batch of more
    than one slot wraps each slot's layers in an ``inference[i]`` region
    and span, so a single inference keeps top-level layer regions.
    """
    if not spec.materialized:
        raise SpecError(
            "model %r has shape-only parameters; use a mini-scale model"
            % spec.name,
            model=spec.name,
        )
    if not batch_inputs:
        raise SpecError("batch must contain at least one input set",
                        model=spec.name)
    for inputs in batch_inputs:
        missing = set(spec.inputs) - set(inputs)
        if missing:
            raise SpecError("missing model inputs: %s" % sorted(missing),
                            model=spec.name)
    tracer = tracer if tracer is not None else get_tracer()
    plan = LayoutPlan.coerce(plan)
    slots = len(batch_inputs)
    with tracer.span("layout", model=spec.name, num_cols=num_cols,
                     batch_size=slots) as sp:
        layout = build_physical_layout(spec, plan, num_cols, scale_bits,
                                       lookup_bits)
        if k is None:
            k = minimal_k(layout.gadget_rows * slots, layout.table_rows,
                          layout.lookup_bits)
        sp.set_attr("k", k)
        sp.set_attr("gadget_rows", layout.gadget_rows)
    builder = CircuitBuilder(k=k, num_cols=num_cols, scale_bits=scale_bits,
                             lookup_bits=layout.lookup_bits)
    fp = builder.fp

    slot_outputs = []
    with tracer.span("witness", model=spec.name, layers=len(spec.layers)):
        # quantize and place the parameters once; every inference copies
        # from the same fixed cells
        layers = []
        for layer_spec in spec.layers:
            layer = layer_spec.layer()
            quantized = layer.quantize_params(
                {k_: np.asarray(v) for k_, v in layer_spec.params.items()}, fp
            )
            params = {
                k_: Tensor.from_entries(
                    builder.weight_entries(
                        np.asarray(v, dtype=object).reshape(-1)),
                    np.shape(v),
                )
                for k_, v in quantized.items()
            }
            choices = resolve_choices(plan.for_layer(layer_spec.name),
                                      layout.lookup_bits)
            layers.append((layer_spec, layer, params, choices))

        for index, inputs in enumerate(batch_inputs):
            values: Dict[str, Tensor] = {
                name: Tensor.from_values(fp.encode_array(np.asarray(arr)))
                for name, arr in inputs.items()
            }
            with ExitStack() as slot:
                if slots > 1:
                    label = "inference[%d]" % index
                    slot.enter_context(builder.region(label, "batch"))
                    slot.enter_context(tracer.span(label, model=spec.name))
                for layer_spec, layer, params, choices in layers:
                    args = [values[i] for i in layer_spec.inputs]
                    with builder.region(layer_spec.name, layer_spec.kind), \
                            tracer.span("layer:%s" % layer_spec.name,
                                        kind=layer_spec.kind) as sp:
                        try:
                            values[layer_spec.name] = layer.synthesize(
                                builder, args, params, choices)
                        except ResilienceError as exc:
                            raise exc.with_context(phase="synthesize",
                                                   layer=layer_spec.name)
                        sp.set_attr("rows_after", builder.rows_used)
            slot_outputs.append({name: values[name]
                                 for name in spec.outputs})
        # land the queued cells and copies here, not in whoever reads
        # the grid next (keygen would be billed for synthesis)
        builder.asg

    return SynthesizedModel(spec=spec, layout=layout, builder=builder,
                            slot_outputs=slot_outputs)


def synthesize_model(spec: ModelSpec, inputs: Dict[str, np.ndarray],
                     **options) -> SynthesizedModel:
    """Lay one inference out on a grid and fill in the witness: a batch
    of one.  Takes every option of :func:`synthesize_batch`."""
    return synthesize_batch(spec, [inputs], **options)


def check_against_reference(result: SynthesizedModel,
                            raw_inputs: Dict[str, np.ndarray]) -> None:
    """Assert the circuit output equals the fixed-point executor exactly."""
    reference = run_fixed(result.spec, raw_inputs,
                          result.builder.scale_bits)
    for name, tensor in result.outputs.items():
        got = tensor.values()
        want = np.asarray(reference[name], dtype=object)
        if got.shape != want.shape or any(
            got[idx] != want[idx] for idx in np.ndindex(got.shape)
        ):
            raise AssertionError(
                "circuit output %r disagrees with fixed-point reference" % name
            )
