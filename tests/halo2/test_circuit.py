"""Tests for ConstraintSystem/Assignment bookkeeping and keygen shape."""

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.halo2 import Assignment, ConstraintSystem, Gate, Ref, keygen
from repro.halo2.column import Column, ColumnType
from repro.obs.stats import STATS

from tests.halo2.circuits import mul_circuit, range_check_circuit

F = GOLDILOCKS


class TestColumnAllocation:
    def test_indices_increment_per_kind(self):
        cs = ConstraintSystem(F)
        assert cs.advice_column().index == 0
        assert cs.advice_column().index == 1
        assert cs.fixed_column().index == 0
        assert cs.selector().index == 0
        assert cs.instance_column().index == 0
        assert cs.num_advice == 2

    def test_selector_equality_rejected(self):
        cs = ConstraintSystem(F)
        s = cs.selector()
        with pytest.raises(ValueError):
            cs.enable_equality(s)


class TestGate:
    def test_selector_must_be_selector_column(self):
        cs = ConstraintSystem(F)
        a = cs.advice_column()
        with pytest.raises(ValueError):
            Gate(name="bad", constraints=(Ref(a),), selector=a)

    def test_effective_degree_includes_selector(self):
        cs = ConstraintSystem(F)
        a, b = cs.advice_column(), cs.advice_column()
        s = cs.selector()
        cs.create_gate("mul", [Ref(a) * Ref(b)], selector=s)
        assert cs.gates[0].degree() == 3

    def test_gate_degree_floor_is_two(self):
        cs = ConstraintSystem(F)
        assert cs.gate_degree() == 2


class TestMaxDegree:
    def test_lookup_raises_degree(self):
        cs = ConstraintSystem(F)
        a = cs.advice_column()
        t = cs.fixed_column()
        s = cs.selector()
        # selector-gated input has degree 2 -> h * (alpha + f) - 1 has
        # degree 1 + input_degree; the table only meets s and m (degree 2)
        lk = cs.add_lookup("rc", inputs=[Ref(s) * Ref(a)], table=[Ref(t)])
        assert cs.max_degree() == 1 + lk.input_degree() == 3

    def test_permutation_sets_floor_three(self):
        cs = ConstraintSystem(F)
        a = cs.advice_column()
        cs.enable_equality(a)
        assert cs.max_degree() == 3


class TestAssignment:
    def test_row_bounds_checked(self):
        cs, asg = mul_circuit(k=3)
        col = Column(ColumnType.ADVICE, 0)
        with pytest.raises(IndexError):
            asg.assign_advice(col, 8, 1)

    def test_kind_mismatch_rejected(self):
        cs, asg = mul_circuit(k=3)
        with pytest.raises(ValueError):
            asg.assign_fixed(Column(ColumnType.ADVICE, 0), 0, 1)

    def test_copy_requires_equality(self):
        cs = ConstraintSystem(F)
        a, b = cs.advice_column(), cs.advice_column()
        asg = Assignment(cs, 3)
        with pytest.raises(ValueError):
            asg.copy(a, 0, b, 0)

    def test_negative_values_reduced(self):
        cs, asg = mul_circuit(k=3)
        col = Column(ColumnType.ADVICE, 0)
        asg.assign_advice(col, 6, -1)
        assert asg.value(col, 6) == F.p - 1

    def test_unassigned_reads_zero(self):
        cs, asg = mul_circuit(k=3)
        assert asg.value(Column(ColumnType.ADVICE, 0), 7) == 0


class TestKeygen:
    def test_helper_layout_counts(self):
        scheme = scheme_by_name("kzg", F)
        cs, asg = range_check_circuit()
        pk, vk = keygen(cs, asg, scheme)
        # one lookup into one table -> h + (m, s), no permutation
        assert vk.shape.round_widths[2] == 3
        assert vk.permutation is None
        assert len(vk.lookups) == 1

    def test_permutation_layout_counts(self):
        scheme = scheme_by_name("kzg", F)
        cs, asg = mul_circuit()
        pk, vk = keygen(cs, asg, scheme)
        # two equality columns -> 2 inverse helpers + 1 running sum
        assert vk.permutation is not None
        assert len(vk.permutation.helper_cols) == 2
        assert vk.shape.round_widths[2] == 3

    def test_fixed_columns_cost_one_base_ntt_each(self):
        # keygen interpolates every fixed/selector/tag column through one
        # batched call; the op count stays one base NTT per column
        scheme = scheme_by_name("kzg", F)
        cs, asg = mul_circuit()
        before = STATS.snapshot()
        pk, vk = keygen(cs, asg, scheme)
        assert STATS.delta(before)["ntt_base"] == len(pk.fixed_evals)
        assert set(vk.fixed_columns) == set(pk.fixed_evals)
        for col, poly in zip(vk.fixed_columns, pk.fixed_polys):
            assert vk.domain.coeff_to_lagrange(poly) == list(pk.fixed_evals[col])

    def test_vk_digest_stable_and_binding(self):
        scheme = scheme_by_name("kzg", F)
        cs1, asg1 = mul_circuit()
        _, vk1 = keygen(cs1, asg1, scheme)
        cs2, asg2 = mul_circuit()
        _, vk2 = keygen(cs2, asg2, scheme)
        assert vk1.digest() == vk2.digest()
        cs3, asg3 = range_check_circuit()
        _, vk3 = keygen(cs3, asg3, scheme)
        assert vk1.digest() != vk3.digest()

    def test_quotient_pieces_track_degree(self):
        scheme = scheme_by_name("kzg", F)
        cs, asg = mul_circuit()
        _, vk = keygen(cs, asg, scheme)
        assert vk.shape.quotient_pieces == vk.shape.max_degree - 1
