"""White-box tests of the prover's helper-column construction.

These check the algebraic invariants the arguments rest on (the lookup
multiplicity identity, the running sums closing to zero over the full
domain, the quotient polynomial having the expected degree bound) and
hold each vectorized kernel of the prover to its per-row reference in
``tests/reference.py``: the coset-part quotient, lookup multiplicities
and the running sum.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import scheme_by_name
from repro.commit.scheme import draw_opening_point
from repro.commit.transcript import Transcript
from repro.field import GOLDILOCKS
from repro.halo2 import keygen
from repro.halo2.column import ColumnType
from repro.halo2.shape import ALPHA, BETA, GAMMA, QUOTIENT_ROUND, THETA, claim_of
from repro.halo2.prover import (
    _lookup_multiplicities,
    _prefix_sum_vec,
    _quotient_extended_np,
)
from repro.halo2.verifier import folded_constraints_at
from repro.resilience.errors import ProvingError

from tests.halo2.circuits import (
    mul_circuit,
    prove_with_columns,
    range_check_circuit,
    relu_lookup_circuit,
)
from tests.reference import lookup_multiplicities, prefix_sum

F = GOLDILOCKS


def proof_for(builder_fn, **kw):
    """Keys, proof, and the committed columns' base-domain values."""
    scheme = scheme_by_name("kzg", F)
    cs, asg = builder_fn(**kw)
    pk, vk = keygen(cs, asg, scheme)
    proof, columns = prove_with_columns(pk, asg, scheme)
    return cs, asg, pk, vk, proof, columns


def replay_transcript(vk, asg, proof):
    """The challenges as the prover's transcript derived them, up to x."""
    transcript = Transcript(F)
    transcript.append_message(b"vk", vk.digest())
    for col_values in asg.instance_values():
        transcript.append_scalar_vector(b"instance", col_values)
    advice_root, helper_root, quotient_root = proof.round_roots
    transcript.append_commitment(b"advice", advice_root)
    ch = {label: transcript.challenge_scalar(label.encode())
          for label in (THETA, BETA, GAMMA, ALPHA)}
    transcript.append_commitment(b"helper", helper_root)
    ch["y"] = transcript.challenge_scalar(b"y")
    transcript.append_commitment(b"quotient", quotient_root)
    ch["x"] = draw_opening_point(vk.domain, transcript)
    return ch


def table_increments(vk, asg, proof, columns, helpers):
    """Per row, ``sum_i h_i - m / (alpha + t)`` for one table's helpers."""
    ch = replay_transcript(vk, asg, proof)
    hs = [columns[col.index] for col in helpers.h_cols]
    m = columns[helpers.m_col.index]
    out = []
    for row in range(asg.n):
        t = 0
        for e in reversed(helpers.table):
            value = e.evaluate(F, lambda col, rot: asg.value(col, row + rot))
            t = F.add(F.mul(t, ch[THETA]), value)
        inc = F.neg(F.mul(m[row], F.inv(F.add(ch[ALPHA], t))))
        for h in hs:
            inc = F.add(inc, h[row])
        out.append(inc)
    return out


class TestLookupHelpers:
    def test_multiplicities_count_inputs(self):
        cs, asg, pk, vk, proof, columns = proof_for(
            range_check_circuit, values=(3, 3, 3, 7)
        )
        m_evals = columns[vk.lookups[0].m_col.index]
        # table row 3 holds value 3 (hit 3 times); row 7 holds 7 (hit once);
        # row 0 holds 0 (hit by all unassigned rows)
        assert m_evals[3] == 3
        assert m_evals[7] == 1
        assert m_evals[0] == asg.n - 4

    def test_lookup_sum_telescopes_to_zero(self):
        cs, asg, pk, vk, proof, columns = proof_for(relu_lookup_circuit)
        total = 0
        for inc in table_increments(vk, asg, proof, columns, vk.lookups[0]):
            total = F.add(total, inc)
        assert total == 0

    def test_s_column_is_prefix_sum(self):
        cs, asg, pk, vk, proof, columns = proof_for(range_check_circuit)
        helpers = vk.lookups[0]
        incs = table_increments(vk, asg, proof, columns, helpers)
        s = columns[helpers.s_col.index]
        assert s[0] == 0
        acc = 0
        for row in range(asg.n - 1):
            acc = F.add(acc, incs[row])
            assert s[row + 1] == acc


class TestPrefixSumKernel:
    """The cumsum-over-limbs running sum against the per-row scalar loop."""

    CASES = {
        "random": lambda n, rng: rng.integers(0, F.p, size=n, dtype=np.uint64),
        "all_zero": lambda n, rng: np.zeros(n, dtype=np.uint64),
        "single_nonzero": lambda n, rng: np.where(
            np.arange(n) == n // 3, np.uint64(F.p - 2), np.uint64(0)),
        "all_p_minus_1": lambda n, rng: np.full(n, F.p - 1, dtype=np.uint64),
    }

    @pytest.mark.parametrize("k", [1, 5, 12])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scalar_loop(self, case, k):
        for seed in range(3):
            h = self.CASES[case](1 << k, np.random.default_rng([k, seed]))
            got = _prefix_sum_vec(h)
            assert got.dtype == np.uint64 and got[0] == 0
            assert got.tolist() == prefix_sum(F, h.tolist())


class TestPermutationHelpers:
    def test_helper_sums_to_zero(self):
        cs, asg, pk, vk, proof, columns = proof_for(mul_circuit)
        perm = vk.permutation
        total = 0
        for h_col in perm.helper_cols:
            for v in columns[h_col.index]:
                total = F.add(total, v)
        assert total == 0

    def test_sigma_tags_form_cycles(self):
        cs, asg, pk, vk, proof, columns = proof_for(mul_circuit)
        perm = vk.permutation
        ids, sigmas = [], []
        for id_col, sigma_col in zip(perm.id_cols, perm.sigma_cols):
            ids.extend(pk.fixed_evals[id_col])
            sigmas.extend(pk.fixed_evals[sigma_col])
        # sigma is a permutation of the id tags
        assert sorted(ids) == sorted(sigmas)
        # and differs from identity exactly on the copied cells
        moved = sum(1 for i, s in zip(ids, sigmas) if i != s)
        assert moved == 2 * len(asg.copies)


class TestQuotient:
    def test_quotient_degree_within_pieces(self):
        cs, asg, pk, vk, proof, columns = proof_for(mul_circuit)
        # every piece is a column of the quotient round (degree < n by
        # construction: it is committed as n coefficients) and is claimed
        # at x exactly once
        pieces = [c for c in vk.shape.claims if c[0] == QUOTIENT_ROUND]
        assert pieces == [(QUOTIENT_ROUND, j, 0)
                          for j in range(vk.shape.quotient_pieces)]
        assert len(proof.queries[0].rows[-1].values) == 2 * len(pieces)

    def test_folded_identity_at_random_point(self):
        cs, asg, pk, vk, proof, columns = proof_for(mul_circuit)
        # reconstruct q(x) from the claimed piece evaluations and check
        # C(x) = Z_H(x) q(x) at the transcript point — what the verifier
        # does before it checks the opening
        ch = replay_transcript(vk, asg, proof)
        x, y = ch.pop("x"), ch.pop("y")
        x_n = F.pow(x, vk.n)
        q = 0
        for claim, value in reversed(list(zip(vk.shape.claims, proof.evals))):
            if claim[0] == QUOTIENT_ROUND:
                q = F.add(F.mul(q, x_n), value)
        z_h = vk.domain.vanishing_eval(x)
        assert z_h != 0  # x is drawn outside the domain
        folded = folded_constraints_at(vk, proof.evals,
                                       asg.instance_values(), ch, y, x)
        assert folded == F.mul(z_h, q)
        # and the algebra is nontrivial: a circuit with constraints has a
        # nonzero quotient
        assert q != 0


class TestLookupMultiplicitiesKernel:
    """The sorted-search multiplicity count against the per-row loop."""

    # small values collide often; p - 1 is the top residue
    VALUES = st.sampled_from([0, 1, 2, 3, 5, 8, F.p - 1])

    @given(data=st.data(), n=st.integers(min_value=1, max_value=16),
           lookups=st.integers(min_value=1, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, data, n, lookups):
        column = st.lists(self.VALUES, min_size=n, max_size=n)
        table = data.draw(column)
        inputs = [data.draw(column) for _ in range(lookups)]
        names = ["lk%d" % i for i in range(lookups)]
        # per lookup: every row (None) or a 0/1 selector, shared or not
        masks = [data.draw(st.none() | st.lists(st.sampled_from([0, 1]),
                                                min_size=n, max_size=n))
                 for _ in range(lookups)]
        if lookups > 1 and data.draw(st.booleans()):
            masks[1] = masks[0]
        arrays = {}  # a shared selector is one array, as in a proving key
        selectors = [None if m is None else arrays.setdefault(
            id(m), np.array(m, dtype=np.uint64)) for m in masks]
        args = (F, names, [np.array(f, dtype=np.uint64) for f in inputs],
                np.array(table, dtype=np.uint64), selectors)
        try:
            want = lookup_multiplicities(F, names, inputs, table, masks)
        except ProvingError as exc:
            with pytest.raises(ProvingError) as got:
                _lookup_multiplicities(*args)
            # the same lookup, at its lowest offending row
            assert got.value.context == exc.context
            assert str(got.value) == str(exc)
            return
        got = _lookup_multiplicities(*args)
        assert got.dtype == np.uint64 and got.tolist() == want


class TestQuotientKernel:
    """The coset-part quotient against a per-row quotient over the
    natural-order extended coset, built from the int-list domain API and
    the scalar vanishing polynomial."""

    CHALLENGES = {THETA: 1234567, BETA: 7654321, GAMMA: 31337, ALPHA: 424242}

    @staticmethod
    def _base_values(pk, vk, asg):
        """Base-domain values of every column a constraint reads: the
        witness where the circuit has one, seeded residues for the helper
        columns (the identity holds for any contents)."""
        rng = random.Random(7)
        values = {}
        for _, expr in vk.constraints:
            for col, _rot in expr.refs():
                if col in values:
                    continue
                if col.kind == ColumnType.INSTANCE:
                    values[col] = asg.instance[col.index].tolist()
                elif col.kind != ColumnType.ADVICE:
                    values[col] = pk.fixed_evals[col].tolist()
                elif col.index < vk.cs.num_advice:
                    values[col] = asg.advice[col.index].tolist()
                else:
                    values[col] = [rng.randrange(F.p) for _ in range(vk.n)]
        return values

    @pytest.mark.parametrize("builder", [mul_circuit, relu_lookup_circuit],
                             ids=["mul", "relu"])
    def test_matches_per_row_quotient(self, builder):
        cs, asg = builder()
        pk, vk = keygen(cs, asg, scheme_by_name("kzg", F))
        domain = vk.domain
        ext_n, extension = domain.extended_n, domain.extension
        values = self._base_values(pk, vk, asg)
        extended = {col: domain.coeff_to_extended(domain.lagrange_to_coeff(v))
                    for col, v in values.items()}
        column_at = {claim_of(col, 0, vk.cs.num_advice,
                              vk.fixed_columns)[:2]: col for col in values
                     if col.kind != ColumnType.INSTANCE}

        def committed_lde(rnd, pos):
            rows = np.array([values[column_at[rnd, pos]]], dtype=np.uint64)
            return domain.lde(domain.lagrange_to_coeff_rows(rows))[0]

        y = 987654321
        got = _quotient_extended_np(pk, asg, committed_lde, self.CHALLENGES, y)

        want = []
        for j in range(ext_n):
            def read(col, rot, j=j):
                return extended[col][(j + rot * extension) % ext_n]

            folded = 0
            for _, expr in vk.constraints:
                folded = F.add(F.mul(folded, y),
                               expr.evaluate(F, read, self.CHALLENGES))
            x = F.mul(domain.coset_shift, F.pow(domain.extended_omega, j))
            want.append(F.mul(folded, F.inv(domain.vanishing_eval(x))))
        assert got.tolist() == want
