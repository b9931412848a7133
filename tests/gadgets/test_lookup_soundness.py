"""The gadget rows of the circuit soundness matrix.

One row per gadget class, driven by ``gadget_registry``: a gadget with
neither a lookup row nor a gate row here fails
:func:`test_every_lookup_gadget_has_a_row`.

A gadget that declares no lookup has a gate row: one honest operation
whose result cell is then perturbed, which only its gate can catch.

A gadget that declares a lookup has a lookup row.  Each row lays out one
honest operation and names a forgery of the cells an *active* lookup
reads that keeps every gate satisfied, so only the lookup argument can
catch it.  MockProver and ``verify_proof_strict`` must agree on both
witnesses: the honest one is accepted by both, the forged one rejected
by both.  The prover itself refuses an input missing from its table, so
the forged proof is made with the membership check taken out of the
multiplicity count (the lookups of ``tests/halo2/test_lookup_argument.py``
do the same).
"""

from typing import Callable, Dict, List, NamedTuple, Tuple

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.gadgets import CircuitBuilder, MaxGadget, gadget_registry
from repro.halo2 import MockProver, create_proof, keygen, prover
from repro.halo2.verifier import validate_proof_shape, verify_proof_strict
from repro.resilience.errors import ProvingError, VerificationFailure
from repro.tensor import Entry

from tests.halo2.circuits import lenient_multiplicities

F = GOLDILOCKS
SF = 1 << 5  # the builders' scale factor
LOOKUP_BITS = 8

#: ``(column offset in the op's slot, row offset in the op) -> new value``
Forgery = Dict[Tuple[int, int], int]


class Row(NamedTuple):
    params: Dict[str, object]
    operands: Tuple[int, ...]
    #: the op's cell values (``read(offset, row=0)``, signed) -> forgery
    forge: Callable[[Callable[..., int]], Forgery]


def rescale(z: int, r: int, step: int):
    """Round one step lower and carry it in the remainder: the gate
    ``2 raw + c - 2c z - r`` still holds, and ``r`` leaves ``[0, 2c)``."""
    return lambda read: {(z, 0): read(z) - 1, (r, 0): read(r) + step}


ROWS: Dict[str, Row] = {
    "mul": Row({}, (50, -70), rescale(2, 3, 2 * SF)),
    "square": Row({}, (45,), rescale(1, 2, 2 * SF)),
    "squared_diff": Row({}, (50, -20), rescale(2, 3, 2 * SF)),
    "div_round_const": Row({"divisor": 7}, (60,), rescale(1, 2, 14)),
    # c = round(25 / 7) = 4 with r = 1: one lower leaves 2a - r = -1
    "var_div": Row({}, (7, 25), lambda read: {
        (2, 0): read(2) - 1, (3, 0): read(3) + 2 * read(0)}),
    # a beyond one limb: r_lo and d_lo absorb the step, leaving their range
    "var_div_wide": Row({}, (300, 10000), lambda read: {
        (2, 0): read(2) - 1, (3, 0): read(3) + 2 * read(0),
        (5, 0): read(5) - 2 * read(0)}),
    # relu(-40) = 0; (x + offset, 5) is no table row
    "pointwise": Row({"fn_name": "relu"}, (-40,),
                     lambda read: {(1, 0): 5}),
    # max(5, 9) claimed as 5: (c - a)(c - b) = 0, but c - b + 1 = -3
    "max": Row({}, (5, 9), lambda read: {(2, 0): read(0)}),
    "multirow_max": Row({}, (5, 9), lambda read: {(0, 1): read(0)}),
}

#: name -> (constructor arguments, operands) of one honest op; a list
#: operand is a vector (a row gadget's terms)
GATE_ROWS: Dict[str, Tuple[Dict[str, object], tuple]] = {
    "add": ({}, (5, -7)),
    "sub": ({}, (5, -7)),
    "scale_const": ({"factor": 3}, (11,)),
    "sum": ({}, (3, -4, 9)),
    "dot_prod": ({}, ([2, -3], [5, 7])),
    "dot_prod_bias": ({}, ([2, -3], [5, 7], 11)),
    "multirow_add": ({}, (5, -7)),
    "multirow_dot": ({}, ([2, -3], [5, 7])),
    # relu(-40) = 0 with the sign bit set
    "bit_decomp_relu": ({}, (-40,)),
}


def builder() -> CircuitBuilder:
    return CircuitBuilder(k=9, num_cols=10, scale_bits=5,
                          lookup_bits=LOOKUP_BITS)


def one_op(name: str, forged: bool) -> CircuitBuilder:
    """A circuit of one ``name`` operation, honest or forged."""
    row = ROWS[name]
    b = builder()
    gadget = b.gadget(gadget_registry[name], **row.params)
    (out, *_) = gadget.assign_row([tuple(Entry(v) for v in row.operands)])
    if forged:
        asg = b.asg
        top = out.cell.row - (gadget.height - 1)

        def read(offset: int, down: int = 0) -> int:
            return F.decode_signed(asg.value(b.columns[offset], top + down))

        for (offset, down), value in row.forge(read).items():
            asg.assign_advice(b.columns[offset], top + down, value)
    return b


def one_gate_op(name: str, perturbed: bool) -> CircuitBuilder:
    """A circuit of one ``name`` operation, its result cell honest or
    one higher."""
    params, operands = GATE_ROWS[name]
    b = builder()
    op = tuple([Entry(v) for v in o] if isinstance(o, list) else Entry(o)
               for o in operands)
    (out,) = b.gadget(gadget_registry[name], **params).assign_row([op])
    if perturbed:
        column, row = out.cell.column, out.cell.row
        b.asg.assign_advice(column, row, b.asg.value(column, row) + 1)
    return b


def verifier_accepts(b: CircuitBuilder, monkeypatch) -> bool:
    """Prove (membership check off) and verify strictly."""
    scheme = scheme_by_name("kzg", F)
    cs, asg = b.cs, b.asg
    pk, vk = keygen(cs, asg, scheme)
    with monkeypatch.context() as patch:
        patch.setattr(prover, "_lookup_multiplicities", lenient_multiplicities)
        proof = create_proof(pk, asg, scheme)
    validate_proof_shape(vk, proof, asg.instance_values())
    try:
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)
    except VerificationFailure:
        return False
    return True


def test_every_lookup_gadget_has_a_row():
    declares: List[str] = []
    for name, cls in sorted(gadget_registry.items()):
        assert name in ROWS or name in GATE_ROWS, (
            "gadget %r has no soundness row" % name)
        b = builder()
        params = ROWS[name].params if name in ROWS else GATE_ROWS[name][0]
        b.gadget(cls, **params)
        if b.cs.lookups:
            declares.append(name)
            # every gadget lookup is weighted by the gadget's selector
            assert {lk.selector for lk in b.cs.lookups} == {
                b.gadget(cls, **params).selector}
    assert declares == sorted(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_forgery_breaks_only_the_lookup(name):
    b = one_op(name, forged=True)
    failures = MockProver(b.cs, b.asg).verify()
    assert failures and {f.kind for f in failures} == {"lookup"}
    scheme = scheme_by_name("kzg", F)
    pk, _ = keygen(b.cs, b.asg, scheme)
    with pytest.raises(ProvingError, match="not in the table"):
        create_proof(pk, b.asg, scheme)


@pytest.mark.parametrize("forged", [False, True], ids=["honest", "forged"])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_mock_prover_and_verifier_agree(name, forged, monkeypatch):
    b = one_op(name, forged)
    mock_accepts = not MockProver(b.cs, b.asg).verify()
    assert mock_accepts == (not forged)
    assert verifier_accepts(b, monkeypatch) == mock_accepts


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["honest", "perturbed"])
@pytest.mark.parametrize("name", sorted(GATE_ROWS))
def test_gate_row_mock_prover_and_verifier_agree(name, perturbed,
                                                 monkeypatch):
    b = one_gate_op(name, perturbed)
    failures = MockProver(b.cs, b.asg).verify()
    assert {f.kind for f in failures} == ({"gate"} if perturbed else set())
    assert verifier_accepts(b, monkeypatch) == (not perturbed)


def test_a_shift_of_minus_one_is_rejected(monkeypatch):
    # max(5, 4) claimed as 4: (c - a)(c - b) = 0, c - b + 1 = 1 is in the
    # table and c - a + 1 = 0 is not (tables hold no zero default row)
    b = builder()
    (out,) = b.gadget(MaxGadget).assign_row([(Entry(5), Entry(4))])
    b.asg.assign_advice(out.cell.column, out.cell.row, 4)
    assert {f.kind for f in MockProver(b.cs, b.asg).verify()} == {"lookup"}
    assert not verifier_accepts(b, monkeypatch)
