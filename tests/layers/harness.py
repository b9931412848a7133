"""Shared harness: run a layer both as a circuit and as fixed-point
reference, and check they agree cell-for-cell, the MockProver passes, and
the count walk of the same layer claims exactly what the circuit built."""

import numpy as np

from repro.gadgets import CircuitBuilder
from repro.layers.base import LayoutChoices
from repro.tensor import ShapeTensor, Tensor


def count_layer(layer, input_shapes, choices=None, num_cols=10,
                scale_bits=5, lookup_bits=None, param_shapes=None):
    """The count walk of one layer on shape-only operands: the counting
    builder it leaves behind holds the rows, gadgets and tables."""
    builder = CircuitBuilder(None, num_cols, scale_bits,
                             lookup_bits if lookup_bits else scale_bits + 3)
    params = {k: ShapeTensor(s) for k, s in (param_shapes or {}).items()}
    layer.synthesize(builder, [ShapeTensor(s) for s in input_shapes],
                     params, choices or LayoutChoices())
    return builder


def run_layer(
    layer,
    float_inputs,
    float_params=None,
    choices=None,
    k=11,
    num_cols=10,
    scale_bits=5,
    lookup_bits=None,
    check_rows=True,
):
    """Returns (circuit_out_values, fixed_reference, builder)."""
    choices = choices or LayoutChoices()
    builder = CircuitBuilder(k=k, num_cols=num_cols, scale_bits=scale_bits,
                             lookup_bits=lookup_bits)
    fp = builder.fp
    float_params = float_params or {}

    fixed_inputs = [fp.encode_array(np.asarray(x)) for x in float_inputs]
    fixed_params = layer.quantize_params(
        {k_: np.asarray(v) for k_, v in float_params.items()}, fp
    ) if float_params else {}

    reference = layer.forward_fixed(fixed_inputs, fixed_params, fp)

    input_tensors = [Tensor.from_values(x) for x in fixed_inputs]
    param_tensors = {k_: Tensor.from_values(v) for k_, v in fixed_params.items()}
    start_rows = builder.rows_used
    out = layer.synthesize(builder, input_tensors, param_tensors, choices)
    rows_spent = builder.rows_used - start_rows

    builder.mock_check()

    got = out.values()
    ref = np.asarray(reference, dtype=object)
    assert got.shape == tuple(np.shape(ref)), (
        "shape mismatch: circuit %r vs reference %r" % (got.shape, np.shape(ref))
    )
    mism = [
        (idx, got[idx], ref[idx])
        for idx in np.ndindex(got.shape)
        if got[idx] != ref[idx]
    ]
    assert not mism, "circuit/reference mismatch at %s" % mism[:5]

    if check_rows:
        counted = count_layer(
            layer, [np.shape(x) for x in fixed_inputs], choices, num_cols,
            scale_bits, builder.lookup_bits,
            {k_: np.shape(v) for k_, v in fixed_params.items()})
        assert counted.rows_used == rows_spent, (
            "row count drift for %s: counted %d, actual %d"
            % (layer.kind, counted.rows_used, rows_spent)
        )
        assert counted.num_lookups == len(builder.cs.lookups)
        assert counted.num_selectors == builder.cs.num_selectors
        assert counted.cs.num_fixed == builder.cs.num_fixed
        assert counted.table_rows_needed() == builder.table_rows_needed()

    expected_shape = layer.output_shape([np.shape(x) for x in fixed_inputs])
    assert tuple(expected_shape) == got.shape
    return got, ref, builder


def assert_close_to_float(layer, float_inputs, float_params, got_fixed,
                          scale_bits=5, tol=None):
    """The decoded circuit output approximates the float semantics."""
    from repro.quantize import FixedPoint

    fp = FixedPoint(scale_bits)
    reference = layer.forward_float(
        [np.asarray(x, dtype=np.float64) for x in float_inputs],
        {k: np.asarray(v, dtype=np.float64) for k, v in (float_params or {}).items()},
    )
    decoded = fp.decode_array(got_fixed)
    tol = tol if tol is not None else 4 / fp.factor
    assert np.allclose(decoded, reference, atol=tol), (
        "float drift: max err %.4f" % np.max(np.abs(decoded - reference))
    )
