"""Physical circuit layouts: row-exact simulation of a circuit's shape.

Given a model, a logical layout (gadget choices), and a column count, a
:class:`PhysicalLayout` records *exactly* how many rows the grid needs
(gadget rows and lookup-table rows), the number of lookup arguments,
selectors and fixed columns — the inputs the cost model (paper §7.4)
needs — without ever allocating a witness.  The simulator is the
synthesizer: every layer's ``synthesize`` runs on a counting
:class:`~repro.gadgets.CircuitBuilder` over shape-only tensors, so the
rows and gadgets counted are the ones a real synthesis lays out.  Because the number of rows must be a power of two, the layout
also fixes the minimal feasible ``k`` (paper §7.3).  The layout keeps
the gadgets the walk configured, which is all :meth:`PhysicalLayout.shape`
needs for the :class:`~repro.halo2.shape.ProofShape` keygen would give
the circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.compiler.logical import LayoutPlan
from repro.gadgets import CircuitBuilder
from repro.halo2.shape import ProofShape
from repro.layers.base import LayoutChoices
from repro.model.spec import ModelSpec
from repro.resilience.errors import LayoutError
from repro.tensor import ShapeTensor

#: Columns the size-objective minimum uses (paper §9.4: "the minimum
#: number of columns, which is 10 for our gadgets").
MIN_COLUMNS = 10


class LayoutInfeasible(LayoutError):
    """The layout cannot fit any supported grid (k beyond the setup)."""


def default_lookup_bits(spec: ModelSpec, scale_bits: int) -> int:
    """Default lookup-table width for a model's value ranges.

    This is the paper's §5.1 coupling: lookup tables live in the grid, so
    the ranges flowing into non-linearities bound the fixed-point
    precision and, through the table size, the grid size.  Divisors that
    outgrow the table (softmax sums over many classes) switch to the
    limb-decomposed VarDivWide gadget instead of inflating the table.
    """
    return scale_bits + 3


@dataclass
class PhysicalLayout:
    """One concrete circuit shape for a (model, choices, columns) triple."""

    spec: ModelSpec
    plan: LayoutPlan
    num_cols: int
    scale_bits: int
    lookup_bits: int
    k: int
    gadget_rows: int
    table_rows: int
    per_layer_rows: Dict[str, int]
    num_lookups: int
    num_fixed: int
    num_selectors: int

    @property
    def n(self) -> int:
        return 1 << self.k

    @property
    def num_advice(self) -> int:
        return self.num_cols

    @property
    def num_instance(self) -> int:
        return max(len(self.spec.inputs), 1)

    #: fixed columns holding model parameters (set by the builder pass)
    num_weight_columns: int = 0
    #: the gadgets the walk configured, as ``(class, params)`` keys in
    #: first-use order
    gadgets: Tuple = ()

    @property
    def num_permutation_columns(self) -> int:
        # every advice column is equality-enabled, plus the constant column
        # and the weight columns (parameters are copy-constrained from
        # fixed cells, so they join the permutation argument)
        return self.num_cols + 1 + self.num_weight_columns

    def describe(self) -> str:
        return (
            "%s: %d cols x 2^%d rows (%d gadget rows, %d table rows), "
            "%d lookups, plan=%s"
            % (self.spec.name, self.num_cols, self.k, self.gadget_rows,
               self.table_rows, self.num_lookups, self.plan)
        )

    def shape(self, k: Optional[int] = None, slots: int = 1) -> ProofShape:
        """The proof shape of ``slots`` inferences on ``2^k`` rows
        (default: this layout's ``k``), without a witness: ``of()`` on the
        constraint system a real synthesis declares once its outputs are
        exposed — the builder's columns, the weight columns, the walk's
        gadgets in the walk's order and one instance column per (slot,
        output)."""
        k = self.k if k is None else k
        builder = CircuitBuilder(None, self.num_cols, self.scale_bits,
                                 self.lookup_bits)
        builder.declare(self.gadgets, _weight_columns(self.spec, k))
        cs = builder.cs
        for _ in range(slots * len(self.spec.outputs)):
            cs.enable_equality(cs.instance_column())
        return ProofShape.of(cs, k)


def resolve_choices(choices: LayoutChoices, lookup_bits: int) -> LayoutChoices:
    """Pin derived knobs: a bit-decomposition ReLU must cover the same
    value range as the lookup tables, so its width follows lookup_bits."""
    if choices.relu == "bitdecomp" and choices.relu_bits != lookup_bits + 1:
        return choices.replace(relu_bits=lookup_bits + 1)
    return choices


def minimal_k(gadget_rows: int, table_rows: int, lookup_bits: int) -> int:
    """The smallest grid (log2 rows) holding the gadget rows and the
    lookup tables (paper §7.3: the row count must be a power of two)."""
    needed = max(gadget_rows, table_rows, 2)
    return max(int(math.ceil(math.log2(needed))), lookup_bits + 1)


def _weight_columns(spec: ModelSpec, k: int) -> int:
    """Fixed columns the model's parameters fill on ``2^k`` rows."""
    return -(-spec.param_count() // (1 << k))


def build_physical_layout(
    spec: ModelSpec,
    plan,
    num_cols: int,
    scale_bits: int,
    lookup_bits: Optional[int] = None,
    max_k: int = 28,
) -> PhysicalLayout:
    """Simulate the circuit shape and pick the minimal feasible k.

    ``plan`` is a :class:`LayoutPlan` or a bare :class:`LayoutChoices`
    (treated as a uniform plan).  ``max_k`` defaults to the trusted
    setup's 2^28 bound (§4.3).
    """
    plan = LayoutPlan.coerce(plan)
    if num_cols < 5:
        raise LayoutError("need at least 5 columns for the gadget set",
                          num_cols=num_cols)
    if lookup_bits is None:
        lookup_bits = default_lookup_bits(spec, scale_bits)

    builder = CircuitBuilder(None, num_cols, scale_bits, lookup_bits)
    values = {name: ShapeTensor(shape) for name, shape in spec.inputs.items()}
    per_layer_rows: Dict[str, int] = {}
    for layer_spec in spec.layers:
        layer = layer_spec.layer()
        params = {name: ShapeTensor(shape) for name, shape in
                  layer.quantized_shapes(layer_spec.param_shapes()).items()}
        choices = resolve_choices(plan.for_layer(layer_spec.name),
                                  lookup_bits)
        start = builder.rows_used
        try:
            values[layer_spec.name] = layer.synthesize(
                builder, [values[i] for i in layer_spec.inputs], params,
                choices)
        except LayoutError as exc:
            # only *layout infeasibility* is a legal reason to discard this
            # (columns, choices) point during layout search — a bare
            # ValueError here would be a genuine bug and must propagate
            raise LayoutInfeasible(
                "%s at %d columns: %s" % (layer_spec.name, num_cols, exc),
                layer=layer_spec.name, num_cols=num_cols,
            ) from exc
        per_layer_rows[layer_spec.name] = builder.rows_used - start

    gadget_rows = builder.rows_used
    table_rows = builder.table_rows_needed()
    k = minimal_k(gadget_rows, table_rows, lookup_bits)
    if k > max_k:
        raise LayoutInfeasible(
            "%s needs 2^%d rows at %d columns, beyond the 2^%d setup"
            % (spec.name, k, num_cols, max_k)
        )

    # model parameters live in fixed columns (the vk commits to them)
    num_weight_columns = _weight_columns(spec, k)

    return PhysicalLayout(
        spec=spec,
        plan=plan,
        num_cols=num_cols,
        scale_bits=scale_bits,
        lookup_bits=lookup_bits,
        k=k,
        gadget_rows=gadget_rows,
        table_rows=table_rows,
        per_layer_rows=per_layer_rows,
        num_lookups=builder.num_lookups,
        # the constants column and the lookup tables, plus the weights
        num_fixed=builder.cs.num_fixed + num_weight_columns,
        num_selectors=builder.num_selectors,
        num_weight_columns=num_weight_columns,
        gadgets=builder.configured,
    )
