"""Soundness and structure of the shared-table, weighted LogUp argument.

Lookups are grouped by table and paired within it: one helper column
``h`` holds ``q_i/(alpha + f_i) + q_j/(alpha + f_j)`` (the selectors
``q`` are the numerators) when that constraint fits the circuit's
degree, else one lookup's ``q/(alpha + f)``; every distinct table has
one multiplicity column ``m`` and one running sum ``s`` with
``(s' - s - sum h) * (alpha + t) + m = 0`` — ``sum_j ceil(L_j/2) + 2T``
helper columns for the selector-gated gadget lookups, at degree 3.
"""

import dataclasses

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.compiler import synthesize_model
from repro.field import GOLDILOCKS
from repro.halo2 import (
    Assignment,
    ConstraintSystem,
    MockProver,
    Ref,
    create_proof,
    keygen,
)
from repro.halo2 import prover
from repro.halo2.shape import ALPHA, HELPER_ROUND, claim_of
from repro.halo2.verifier import verify_proof_strict
from repro.halo2.verifier import validate_proof_shape, verify_proof_strict
from repro.model import get_model
from repro.obs.stats import STATS
from repro.resilience.errors import (
    LayoutError,
    ProofFormatError,
    ProvingError,
    VerificationFailure,
)

from tests.halo2.circuits import (
    lenient_multiplicities,
    prove_with_columns,
    range_check_circuit,
)

F = GOLDILOCKS


@pytest.fixture
def scheme():
    return scheme_by_name("kzg", F)


def two_table_circuit(k=4, a1=(3, 3, 7), a2=(3, 5), b1=(20, 30)):
    """Lookups ``a1``, ``b1``, ``a2`` (in that order) into tables A and B.

    Table A holds 0..7, table B holds 0 and 20..34, so 20 is in B only.
    Unassigned rows read 0, which both tables contain.
    """
    cs = ConstraintSystem(F)
    x1, x2, y1 = cs.advice_column(), cs.advice_column(), cs.advice_column()
    table_a, table_b = cs.fixed_column(), cs.fixed_column()
    cs.add_lookup("a1", inputs=[Ref(x1)], table=[Ref(table_a)])
    cs.add_lookup("b1", inputs=[Ref(y1)], table=[Ref(table_b)])
    cs.add_lookup("a2", inputs=[Ref(x2)], table=[Ref(table_a)])
    asg = Assignment(cs, k)
    for row in range(asg.n):
        asg.assign_fixed(table_a, row, row if row < 8 else 0)
        asg.assign_fixed(table_b, row, 19 + row if row else 0)
    for col, values in ((x1, a1), (x2, a2), (y1, b1)):
        for row, v in enumerate(values):
            asg.assign_advice(col, row, v)
    return cs, asg


def gated_pair_circuit(k=4, x1=(3, 3, 7), x2=(3, 5), inactive=()):
    """Lookups ``a1`` (selector on rows 0-2) and ``a2`` (rows 0-1) into
    table A (0..7).  One equality-enabled column puts the circuit at
    degree 3, so the two share a helper column.  ``inactive`` holds
    ``(row, value)`` cells of ``a1``'s input on rows its selector is off.
    """
    cs = ConstraintSystem(F)
    c1, c2 = cs.advice_column(), cs.advice_column()
    table = cs.fixed_column()
    q1, q2 = cs.selector(), cs.selector()
    cs.enable_equality(c1)
    cs.add_lookup("a1", inputs=[Ref(c1)], table=[Ref(table)], selector=q1)
    cs.add_lookup("a2", inputs=[Ref(c2)], table=[Ref(table)], selector=q2)
    asg = Assignment(cs, k)
    for row in range(asg.n):
        asg.assign_fixed(table, row, row if row < 8 else 0)
    for col, sel, values in ((c1, q1, x1), (c2, q2, x2)):
        for row, v in enumerate(values):
            asg.assign_advice(col, row, v)
            asg.enable_selector(sel, row)
    for row, v in inactive:
        asg.assign_advice(c1, row, v)
    return cs, asg


class TestSharedMultiplicity:
    def test_m_sums_the_lookups_of_one_table(self, scheme):
        cs, asg = two_table_circuit()
        pk, vk = keygen(cs, asg, scheme)
        proof, columns = prove_with_columns(pk, asg, scheme)
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)
        table_a, table_b = vk.lookups
        assert [lk.name for lk in table_a.arguments] == ["a1", "a2"]
        assert [lk.name for lk in table_b.arguments] == ["b1"]
        m = columns[table_a.m_col.index]
        # a1 hits 3 twice and 7 once, a2 hits 3 and 5 once each; the rest
        # of both columns reads 0
        assert m[3] == 2 + 1
        assert m[7] == 1
        assert m[5] == 1
        assert m[0] == (asg.n - 3) + (asg.n - 2)
        assert sum(m) == 2 * asg.n
        assert sum(columns[table_b.m_col.index]) == asg.n


class TestWrongTable:
    """20 is in table B but not in A; ``a2`` looks it up against A."""

    def circuit(self):
        return two_table_circuit(a2=(3, 5, 20, 20))

    def test_mock_prover_rejects(self):
        cs, asg = self.circuit()
        failures = MockProver(cs, asg).verify()
        assert {(f.kind, f.name, f.row) for f in failures} == {
            ("lookup", "a2", 2), ("lookup", "a2", 3)}

    def test_prover_names_lookup_and_lowest_row(self, scheme):
        cs, asg = self.circuit()
        pk, vk = keygen(cs, asg, scheme)
        with pytest.raises(ProvingError, match="'a2'.*20 at row 2") as info:
            create_proof(pk, asg, scheme)
        assert info.value.context["lookup"] == "a2"
        assert info.value.context["row"] == 2

    def test_verifier_rejects_when_the_prover_does_not_check(
            self, scheme, monkeypatch):
        cs, asg = self.circuit()
        pk, vk = keygen(cs, asg, scheme)
        monkeypatch.setattr(prover, "_lookup_multiplicities",
                            lenient_multiplicities)
        proof = create_proof(pk, asg, scheme)
        validate_proof_shape(vk, proof, asg.instance_values())
        with pytest.raises(VerificationFailure):
            verify_proof_strict(vk, proof, asg.instance_values(), scheme)


class TestWeightedPairs:
    """Selectors as LogUp numerators: two lookups share a helper column,
    and a row whose selector is off is not looked up."""

    def test_two_lookups_of_one_table_share_a_column(self, scheme):
        cs, asg = gated_pair_circuit()
        pk, vk = keygen(cs, asg, scheme)
        (helpers,) = vk.lookups
        assert [[lk.name for lk in group] for group in helpers.groups] == [
            ["a1", "a2"]]
        assert len(helpers.h_cols) == 1
        assert vk.shape.max_degree == cs.max_degree() == 3
        assert "lookup:a1,a2/fraction" in dict(vk.constraints)
        proof, columns = prove_with_columns(pk, asg, scheme)
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)
        # only active rows count: a1 hits 3 twice and 7 once, a2 hits 3
        # and 5; the zero row is no longer hit by the inactive rows
        m = columns[helpers.m_col.index]
        assert (m[0], m[3], m[5], m[7]) == (0, 3, 1, 1)
        assert sum(m) == 5

    def test_inactive_row_outside_the_table_proves_and_verifies(self, scheme):
        cs, asg = gated_pair_circuit(inactive=((5, 100), (9, F.p - 1)))
        MockProver(cs, asg).assert_satisfied()
        pk, vk = keygen(cs, asg, scheme)
        proof = create_proof(pk, asg, scheme)
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)

    def test_active_row_outside_the_table_is_still_rejected(self, scheme):
        cs, asg = gated_pair_circuit(x1=(3, 100, 7))
        failures = MockProver(cs, asg).verify()
        assert [(f.kind, f.name, f.row) for f in failures] == [
            ("lookup", "a1", 1)]
        pk, vk = keygen(cs, asg, scheme)
        with pytest.raises(ProvingError, match="'a1'.*100 at row 1"):
            create_proof(pk, asg, scheme)

    def test_nonzero_h_on_an_inactive_row_is_rejected(self, scheme,
                                                      monkeypatch):
        # an active input outside the table (20 on row 1), left out of m,
        # leaves 1/(alpha + 20) too much in the running sum; a forged h on
        # the inactive row 6 takes exactly that back out, so the sum
        # still closes.  Only the inactive row's fraction constraint
        # (q = 0 there, so h must be 0) can catch it.
        cs, asg = gated_pair_circuit(x1=(3, 20, 7))
        pk, vk = keygen(cs, asg, scheme)
        (helpers,) = vk.lookups
        inactive_row = 6
        assert not any(asg.selectors[:, inactive_row])
        real = prover._helper_vectors
        lookup_rows = len(helpers.arguments) + 1
        seen = {}

        def forging(pk_, asg_, challenges):
            seen["alpha"] = challenges[ALPHA]
            out = real(pk_, asg_, challenges)
            den = int(out[lookup_rows, inactive_row])  # the pair's
            cancel = F.neg(F.inv(F.add(challenges[ALPHA], 20)))
            # h = numerator / denominator on that row
            out[-1, inactive_row] = F.mul(cancel, den)
            return out

        monkeypatch.setattr(prover, "_lookup_multiplicities",
                            lenient_multiplicities)
        monkeypatch.setattr(prover, "_helper_vectors", forging)
        proof, columns = prove_with_columns(pk, asg, scheme)
        h = columns[helpers.h_cols[0].index]
        assert h[inactive_row] != 0
        # the forgery balances the running sum: its last step wraps s
        # back to s[0] = 0
        s, m = columns[helpers.s_col.index], columns[helpers.m_col.index]
        last = asg.n - 1
        t_last = asg.value(helpers.table[0].column, last)
        step = F.sub(h[last], F.mul(m[last], F.inv(F.add(seen["alpha"], t_last))))
        assert F.add(s[last], step) == 0
        validate_proof_shape(vk, proof, asg.instance_values())
        with pytest.raises(VerificationFailure):
            verify_proof_strict(vk, proof, asg.instance_values(), scheme)


class TestNumeratorsAreSelectors:
    @pytest.mark.parametrize("kind", ["advice", "fixed"])
    def test_keygen_rejects_a_non_selector_numerator(self, scheme, kind):
        cs = ConstraintSystem(F)
        x, table = cs.advice_column(), cs.fixed_column()
        weight = getattr(cs, kind + "_column")()
        cs.add_lookup("w", inputs=[Ref(x)], table=[Ref(table)],
                      selector=weight)
        asg = Assignment(cs, 3)
        with pytest.raises(LayoutError, match="'w'.*selector column") as info:
            keygen(cs, asg, scheme)
        assert info.value.context["lookup"] == "w"


def prove_with_perturbed_helper(monkeypatch, pk, asg, scheme, col, row):
    """An honest proof, except ``col`` is off by one at ``row`` when the
    helper columns are committed (the second interpolate-and-commit)."""
    real = prover._interpolate_commit_rows
    target = col.index - pk.vk.cs.num_advice
    calls = []

    def perturbing(domain, sch, mat):
        calls.append(mat.shape)
        if len(calls) == 2:
            mat = mat.copy()
            mat[target, row] = (int(mat[target, row]) + 1) % F.p
        return real(domain, sch, mat)

    monkeypatch.setattr(prover, "_interpolate_commit_rows", perturbing)
    proof = create_proof(pk, asg, scheme)
    assert calls[1][0] == pk.vk.shape.round_widths[2]
    return proof


class TestPerturbedHelpers:
    @pytest.mark.parametrize("which", ["h", "m", "s"])
    def test_one_wrong_cell_is_rejected(self, scheme, monkeypatch, which):
        cs, asg = two_table_circuit()
        pk, vk = keygen(cs, asg, scheme)
        helpers = vk.lookups[0]
        col = {"h": helpers.h_cols[1], "m": helpers.m_col,
               "s": helpers.s_col}[which]
        proof = prove_with_perturbed_helper(monkeypatch, pk, asg, scheme,
                                            col, row=5)
        with pytest.raises(VerificationFailure):
            verify_proof_strict(vk, proof, asg.instance_values(), scheme)

    def test_unperturbed_control_verifies(self, scheme):
        cs, asg = two_table_circuit()
        pk, vk = keygen(cs, asg, scheme)
        proof = create_proof(pk, asg, scheme)
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)


class TestLayout:
    def test_helper_order_follows_lookup_order(self, scheme):
        shapes = []
        for _ in range(2):
            cs, asg = two_table_circuit()
            _, vk = keygen(cs, asg, scheme)
            shapes.append(([name for name, _ in vk.constraints],
                           vk.shape.claims, vk.shape.round_widths[2]))
        assert shapes[0] == shapes[1]
        names, queries, helpers = shapes[0]
        # tables in first-appearance order, each: fractions, then sum,
        # init; the circuit is degree 2, so no two lookups pair
        assert names == [
            "lookup:a1/fraction", "lookup:a2/fraction",
            "table:0/sum", "table:0/init",
            "lookup:b1/fraction", "table:1/sum", "table:1/init",
        ]
        assert helpers == 3 + 2 * 2  # L + 2T
        first = cs.num_advice
        table_a, table_b = vk.lookups
        assert [c.index for c in (*table_a.h_cols, table_a.m_col,
                                  table_a.s_col, *table_b.h_cols,
                                  table_b.m_col, table_b.s_col)] == list(
            range(first, first + helpers))
        # only the running sums are read at the next row
        assert [c for c in queries if c[2]] == [
            claim_of(col, 1, cs.num_advice, vk.fixed_columns)
            for col in (table_a.s_col, table_b.s_col)]

    def test_old_3l_helper_count_rejected_before_hashing(self, scheme):
        cs, asg = two_table_circuit()
        pk, vk = keygen(cs, asg, scheme)
        proof = create_proof(pk, asg, scheme)
        old_count = 3 * len(cs.lookups)
        assert old_count > vk.shape.round_widths[2]
        # a proof whose helper rows are as wide as the per-lookup layout
        extra = (0,) * (2 * (old_count - vk.shape.round_widths[2]))
        proof.queries = [
            dataclasses.replace(query, rows=tuple(
                dataclasses.replace(row, values=row.values + extra)
                if slot == HELPER_ROUND else row
                for slot, row in enumerate(query.rows)))
            for query in proof.queries]
        before = STATS.snapshot()
        with pytest.raises(ProofFormatError, match="rows of the wrong shape"):
            validate_proof_shape(vk, proof, asg.instance_values())
        assert not any(STATS.delta(before).values())

    def test_one_column_per_lookup_width_rejected_before_hashing(self, scheme):
        cs, asg = gated_pair_circuit()
        pk, vk = keygen(cs, asg, scheme)
        proof = create_proof(pk, asg, scheme)
        # the unpaired layout: one h per lookup, m and s per table, and the
        # permutation's helper and running sum
        per_lookup = len(cs.lookups) + 2 * len(vk.lookups) + 1 + 1
        assert per_lookup == vk.shape.round_widths[2] + 1
        extra = (0,) * (2 * (per_lookup - vk.shape.round_widths[2]))
        proof.queries = [
            dataclasses.replace(query, rows=tuple(
                dataclasses.replace(row, values=row.values + extra)
                if slot == HELPER_ROUND else row
                for slot, row in enumerate(query.rows)))
            for query in proof.queries]
        before = STATS.snapshot()
        with pytest.raises(ProofFormatError, match="rows of the wrong shape"):
            validate_proof_shape(vk, proof, asg.instance_values())
        assert not any(STATS.delta(before).values())

    # the ids name the one-column-per-lookup width (L + 2T + P + 1),
    # which the test still pins beside the paired width it proves with
    @pytest.mark.parametrize("model,unpaired,helpers", [
        pytest.param("dlrm", 33, 28, id="dlrm-33"),
        pytest.param("mnist", 45, 35, id="mnist-45"),
        pytest.param("twitter", 50, 39, id="twitter-50"),
        pytest.param("gpt2", 62, 46, id="gpt2-62"),
        pytest.param("mobilenet", 33, 28, id="mobilenet-33"),
        pytest.param("resnet18", 33, 28, id="resnet18-33"),
    ])
    def test_zoo_models_are_degree_three(self, scheme, model, unpaired,
                                         helpers):
        # was 53 / 83 / 92 / 122 / 53 / 53 helper columns at degree 4
        spec = get_model(model, "mini")
        rng = np.random.default_rng(0)
        inputs = {k: rng.uniform(-0.5, 0.5, shape)
                  for k, shape in spec.inputs.items()}
        synth = synthesize_model(spec, inputs, num_cols=10, scale_bits=5)
        for name in spec.outputs:
            synth.builder.expose(synth.outputs[name].entries())
        cs = synth.builder.cs
        _, vk = keygen(cs, synth.builder.asg, scheme)
        assert vk.shape.max_degree == cs.max_degree() == 3
        assert vk.domain.extension == 2
        assert vk.shape.quotient_pieces == 2
        assert vk.shape.round_widths[2] == helpers
        # every lookup is selector-gated with a degree-1 input, so the
        # lookups of each table pair up: sum_j ceil(L_j/2) + 2T + P + 1
        per_table = [len(h.arguments) for h in vk.lookups]
        assert len(vk.lookups) == len({lk.table for lk in cs.lookups})
        assert [len(h.h_cols) for h in vk.lookups] == [
            -(-size // 2) for size in per_table]
        permutation = len(vk.permutation.helper_cols) + 1
        assert helpers == (sum(-(-size // 2) for size in per_table)
                           + 2 * len(per_table) + permutation)
        assert unpaired == len(cs.lookups) + 2 * len(per_table) + permutation


class TestDegrees:
    def test_ungated_lookup_is_degree_two(self, scheme):
        cs, asg = range_check_circuit()
        pk, vk = keygen(cs, asg, scheme)
        assert vk.shape.max_degree == cs.max_degree() == 2
        assert vk.shape.quotient_pieces == 1
        proof = create_proof(pk, asg, scheme)
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)

    def test_degree_four_user_gate_still_sets_the_bound(self, scheme):
        cs, asg, b = cube_gate_circuit()
        MockProver(cs, asg).assert_satisfied()
        pk, vk = keygen(cs, asg, scheme)
        assert vk.shape.max_degree == cs.max_degree() == 4
        assert vk.domain.extension == 4
        assert vk.shape.quotient_pieces == 3
        proof = create_proof(pk, asg, scheme)
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)
        asg.assign_advice(b, 1, 10)
        bad = create_proof(pk, asg, scheme)
        with pytest.raises(VerificationFailure):
            verify_proof_strict(vk, bad, asg.instance_values(), scheme)

    def test_vk_hash_covers_the_helper_layout(self, scheme):
        # the vk digest binds the constraint list, not only k, max_degree
        # and the fixed columns: on a circuit whose own gates reach degree
        # 4 the per-lookup build had the same max_degree and the same
        # fixed columns as this one, and before envelope v2 the two keys
        # answered to one vk_hash.  `old` stands in for that key.
        cs, asg, _ = cube_gate_circuit()
        pk, vk = keygen(cs, asg, scheme)
        widths = list(vk.shape.round_widths)
        widths[2] += 2 * len(cs.lookups) - 2 * len(vk.lookups)
        old = dataclasses.replace(
            vk, constraints=vk.constraints[:-1], _digest=b"",
            shape=dataclasses.replace(vk.shape, round_widths=tuple(widths)))
        assert old.shape.max_degree == vk.shape.max_degree
        assert old.fixed_root == vk.fixed_root
        assert old.digest() != vk.digest()

    def test_one_changed_constraint_changes_the_vk_hash(self, scheme):
        cs, asg, _ = cube_gate_circuit()
        _, vk = keygen(cs, asg, scheme)
        name, expr = vk.constraints[0]
        for other in (-expr, expr + 0, expr * 1):
            assert other.degree() == expr.degree()
            changed = dataclasses.replace(
                vk, constraints=[(name, other)] + vk.constraints[1:],
                _digest=b"")
            assert changed.digest() != vk.digest()
        renamed = dataclasses.replace(
            vk, constraints=[("x" + name, expr)] + vk.constraints[1:],
            _digest=b"")
        assert renamed.digest() != vk.digest()
        same = dataclasses.replace(vk, constraints=list(vk.constraints),
                                   _digest=b"")
        assert same.digest() == vk.digest()


def cube_gate_circuit():
    """``two_table_circuit`` plus a degree-4 user gate ``s * (a^3 - b*c)``."""
    cs, asg = two_table_circuit()
    a, b, c = cs.advice_column(), cs.advice_column(), cs.advice_column()
    sel = cs.selector()
    cs.create_gate("cube", [Ref(a) * Ref(a) * Ref(a) - Ref(b) * Ref(c)],
                   selector=sel)
    for row, v in enumerate((2, 3, 5)):
        asg.assign_advice(a, row, v)
        asg.assign_advice(b, row, v * v)
        asg.assign_advice(c, row, v)
        asg.enable_selector(sel, row)
    return cs, asg, b
