"""The linear layers' grids, pinned, and their slice of the soundness
matrix.

One case per linear layer shape the zoo uses — fully_connected, conv2d
(``same``, and ``valid`` at stride 2), depthwise with multiplier 2 and
batch_matmul — each under the three ``linear`` layouts.  A case is a
one-layer model synthesized the way ``prove_model`` lays it out:
weights in fixed columns, inputs homed at their first placement,
outputs exposed, at the minimal k.

``GRIDS`` pins, per row, ``rows_used``, ``k`` and a blake2b-16 of the
advice, fixed and selector grids plus the copy list.  The ``dot_bias``
and ``freivalds`` rows are the placement-order contract of
docs/gadgets.md: a change to how the dot products are laid must leave
them alone.  A ``dot_sum`` row may move its digest (not its rows or k)
when the partial rows and the Sum trees are reordered, and says why in
CHANGES.md: it moved once, when the partial rows of all of a matmul's
dots went into one block ahead of their Sum trees.  Every row moved once
in its fixed grid alone (advice, selectors and copies unchanged), when
the lookup tables lost their zero default row.

The soundness rows perturb one cell of each kind after an honest
synthesis — a placed operand copy, an accumulator cell and a row result
— and hold MockProver and a real prove + ``verify_proof_strict`` to the
same answer: both accept the honest grid, both reject every perturbed
one.
"""

import hashlib

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.compiler import synthesize_model
from repro.gadgets import DotProdBiasGadget, DotProdGadget, SumGadget
from repro.halo2 import MockProver, create_proof, keygen
from repro.halo2.verifier import verify_proof_strict
from repro.layers.base import LayoutChoices
from repro.model import GraphBuilder, seeded_inputs
from repro.resilience.errors import VerificationFailure

LINEAR = ("dot_bias", "dot_sum", "freivalds")


def _spec(case: str):
    gb = GraphBuilder("linear-" + case, seed=3)
    if case == "fully_connected":
        out = gb.fully_connected(gb.input("x", (2, 11)), 11, 3)
    elif case == "conv2d_same":
        out = gb.conv2d(gb.input("x", (4, 4, 2)), 2, 3, stride=1,
                        padding="same")
    elif case == "conv2d_valid_s2":
        out = gb.conv2d(gb.input("x", (5, 5, 2)), 2, 3, stride=2,
                        padding="valid")
    elif case == "depthwise_m2":
        out = gb.depthwise_conv2d(gb.input("x", (4, 4, 2)), 2, multiplier=2)
    else:
        out = gb.batch_matmul(gb.input("a", (2, 3, 5)),
                              gb.input("b", (2, 5, 2)))
    return gb.build([out])


CASES = ("fully_connected", "conv2d_same", "conv2d_valid_s2",
         "depthwise_m2", "batch_matmul")

#: (case, linear) -> (rows_used, k, blake2b-16 of the grids + copy list)
GRIDS = {
    ("batch_matmul", "dot_bias"): (28, 9, "02596fcb8059cee5633d2bb2f062f410"),
    ("batch_matmul", "dot_sum"): (40, 9, "6d1e1df86ca5f7592064bb959d76d741"),
    ("batch_matmul", "freivalds"): (32, 9, "04b5c172243428d98076c6302bfa6e88"),
    ("conv2d_same", "dot_bias"): (256, 9, "8cd486d68d226f25e3612f67c14c77a7"),
    ("conv2d_same", "dot_sum"): (304, 9, "2266482762ec506e1b085a0c75aaec9f"),
    ("conv2d_same", "freivalds"): (137, 9, "92d106b2a88099edee79540bdefe08dc"),
    ("conv2d_valid_s2", "dot_bias"): (64, 9, "948f363b8c4567cac8d2dac5b13dd76b"),
    ("conv2d_valid_s2", "dot_sum"): (76, 9, "69dbc9d7f0959e8078511ef96a4850e7"),
    ("conv2d_valid_s2", "freivalds"): (49, 9, "215ecd11faad57d35abaff413b2f3a56"),
    ("depthwise_m2", "dot_bias"): (214, 9, "c82f9da6fdbd8e0c3595ee2ccfd60698"),
    ("depthwise_m2", "dot_sum"): (278, 9, "5cf4fa610f06b4210a979eb6c835c923"),
    ("depthwise_m2", "freivalds"): (214, 9, "c82f9da6fdbd8e0c3595ee2ccfd60698"),
    ("fully_connected", "dot_bias"): (20, 9, "48f10ccc325e776b3f30a0a37109f770"),
    ("fully_connected", "dot_sum"): (26, 9, "6c2bda27fde296a068c24594716573ac"),
    ("fully_connected", "freivalds"): (23, 9, "b8ca55d3560dccf5ff3445cf7fd48303"),
}


def synthesize(case: str, linear: str):
    spec = _spec(case)
    synth = synthesize_model(spec, seeded_inputs(spec, 0),
                             plan=LayoutChoices(linear=linear))
    synth.expose_outputs()
    return synth.builder


def grid_digest(builder) -> str:
    asg = builder.asg
    h = hashlib.blake2b(digest_size=16)
    for grid in (asg.advice, asg.fixed, asg.selectors, asg.copies):
        h.update(repr(grid.shape).encode())
        h.update(np.ascontiguousarray(grid).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case,linear", sorted(GRIDS))
def test_linear_grid_is_pinned(case, linear):
    b = synthesize(case, linear)
    assert (b.rows_used, b.k, grid_digest(b)) == GRIDS[case, linear]


def _rows(b, gadget) -> np.ndarray:
    """The rows ``gadget``'s selector is on."""
    return np.flatnonzero(b.asg.selectors[gadget.selector.index])


def _cells(b, linear: str):
    """kind -> (advice column, row) of the cell that kind perturbs: the
    first dot-row operand copied from its home, the first dot row's
    accumulator (the first Sum row's first term under ``dot_sum``, where
    the partials accumulate) and its result."""
    dot = b.gadget(DotProdGadget if linear == "dot_sum" else DotProdBiasGadget)
    rows = _rows(b, dot)
    n = dot.terms_per_row(b.num_cols)
    kind, col, row = b.asg.copies[:, 3:].T
    operand = (kind == 0) & (col < 2 * n) & np.isin(row, rows)
    first = np.flatnonzero(operand)[0]
    if linear == "dot_sum":
        accumulator = (0, _rows(b, b.gadget(SumGadget))[0])
    else:
        accumulator = (b.num_cols - 2, rows[0])
    return {"operand": (col[first], row[first]), "accumulator": accumulator,
            "result": (b.num_cols - 1, rows[0])}


def _perturbed(case: str, linear: str, kind):
    b = synthesize(case, linear)
    if kind is not None:
        col, row = map(int, _cells(b, linear)[kind])
        column = b.columns[col]
        b.asg.assign_advice(column, row, b.asg.value(column, row) + 1)
    return b


def _verifies(b) -> bool:
    scheme = scheme_by_name("kzg", b.field)
    pk, vk = keygen(b.cs, b.asg, scheme)
    proof = create_proof(pk, b.asg, scheme)
    try:
        verify_proof_strict(vk, proof, b.asg.instance_values(), scheme)
    except VerificationFailure:
        return False
    return True


@pytest.mark.parametrize("kind", [None, "operand", "accumulator", "result"],
                         ids=["honest", "operand", "accumulator", "result"])
@pytest.mark.parametrize("linear", LINEAR)
@pytest.mark.parametrize("case", CASES)
def test_mock_prover_and_verifier_agree(case, linear, kind):
    b = _perturbed(case, linear, kind)
    mock_accepts = not MockProver(b.cs, b.asg).verify()
    assert mock_accepts == (kind is None)
    assert _verifies(b) == mock_accepts
