"""Edge cases of the cost model and proof-size accounting."""

import pytest

from repro.commit import scheme_by_name
from repro.compiler import build_physical_layout
from repro.field import GOLDILOCKS
from repro.layers.base import LayoutChoices
from repro.model import GraphBuilder, get_model
from repro.optimizer import (
    R6I_8XLARGE,
    estimate_cost,
    estimate_proof_size,
    num_ffts,
)
from repro.optimizer.cost_model import _d_max


def lookup_free_model():
    """A model whose default layout needs no lookup tables at all."""
    gb = GraphBuilder("lookup-free", materialize=False)
    x = gb.input("x", (4, 4))
    y = gb.add_layer("reduce_sum", [x], {"axis": 1})
    return gb.build([y])


class TestDegreeThree:
    def test_lookup_free_circuit_has_degree_three(self):
        layout = build_physical_layout(lookup_free_model(), LayoutChoices(),
                                       8, scale_bits=5)
        assert layout.num_lookups == 0
        assert _d_max(layout) == 3

    def test_lookup_free_has_fewer_quotient_ffts(self):
        free = build_physical_layout(lookup_free_model(), LayoutChoices(),
                                     8, scale_bits=5)
        with_lookups = build_physical_layout(get_model("mnist", "paper"),
                                             LayoutChoices(), 8,
                                             scale_bits=5)
        # 3 FFTs per lookup argument dominate the delta (Eq. 2)
        assert num_ffts(free) < num_ffts(with_lookups)


class TestProofSizeInvariants:
    def test_modeled_size_matches_estimator_magnitude(self):
        """Real proof accounting and analytic estimator agree within 2x."""
        import numpy as np

        from repro.runtime import prove_model

        spec = get_model("mnist", "mini")
        rng = np.random.default_rng(0)
        inputs = {k: rng.uniform(-0.5, 0.5, s)
                  for k, s in spec.inputs.items()}
        result = prove_model(spec, inputs, num_cols=10, scale_bits=5)
        layout = build_physical_layout(spec, LayoutChoices(), 10,
                                       scale_bits=5)
        analytic = estimate_proof_size(layout, "kzg")
        assert analytic / 2 < result.modeled_proof_bytes < analytic * 2

    def test_cost_breakdown_sums(self):
        layout = build_physical_layout(get_model("dlrm", "paper"),
                                       LayoutChoices(), 16, scale_bits=10)
        cost = estimate_cost(layout, R6I_8XLARGE, "kzg")
        assert cost.total == pytest.approx(
            cost.fft + cost.msm + cost.lookup + cost.residual)

    def test_kzg_trusted_setup_bound_enforced_in_commit(self):
        scheme = scheme_by_name("kzg", GOLDILOCKS)
        with pytest.raises(ValueError, match="trusted setup"):
            scheme.commit([0] * ((1 << 28) + 1))
