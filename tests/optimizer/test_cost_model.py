"""Tests for the Eq. 1-2 cost model."""

import pytest

from repro.compiler import build_physical_layout
from repro.layers.base import LayoutChoices
from repro.model import get_model
from repro.optimizer import (
    R6I_8XLARGE,
    estimate_cost,
    estimate_proof_size,
    estimate_verification_time,
    extended_k,
    num_ffts,
    num_msms,
)
from repro.optimizer.cost_model import _d_max


@pytest.fixture(scope="module")
def layout():
    return build_physical_layout(get_model("mnist", "paper"),
                                 LayoutChoices(), 12, scale_bits=8)


class TestFFTCounts:
    def test_eq2_formula(self, layout):
        d = _d_max(layout)
        expected = (layout.num_instance + layout.num_advice
                    + 3 * layout.num_lookups
                    + (layout.num_permutation_columns + d - 3) / (d - 2))
        assert num_ffts(layout) == expected

    def test_extended_k(self, layout):
        # halo2's d_max = 4 (lookups present) -> k' = k + 2
        assert _d_max(layout) == 4
        assert extended_k(layout) == layout.k + 2

    def test_msm_counts_backend_difference(self, layout):
        assert num_msms(layout, "ipa") == num_msms(layout, "kzg") + 1


class TestCostEstimates:
    def test_breakdown_positive(self, layout):
        cost = estimate_cost(layout, R6I_8XLARGE, "kzg")
        assert cost.fft > 0 and cost.msm > 0 and cost.lookup > 0
        assert cost.total == cost.fft + cost.msm + cost.lookup + cost.residual

    def test_cost_grows_with_rows(self):
        spec = get_model("mnist", "paper")
        small = build_physical_layout(spec, LayoutChoices(), 40, scale_bits=8)
        big = build_physical_layout(spec, LayoutChoices(), 8, scale_bits=8)
        assert big.k >= small.k
        if big.k > small.k:
            assert (estimate_cost(big, R6I_8XLARGE).total
                    > estimate_cost(small, R6I_8XLARGE).total * 0.5)

    def test_power_of_two_cliff(self):
        """One extra row past a power of two nearly doubles cost (§9.3)."""
        spec = get_model("mnist", "paper")
        layout = build_physical_layout(spec, LayoutChoices(), 12, scale_bits=8)
        bumped = build_physical_layout(spec, LayoutChoices(), 12, scale_bits=8)
        bumped.k = layout.k + 1
        ratio = (estimate_cost(bumped, R6I_8XLARGE).total
                 / estimate_cost(layout, R6I_8XLARGE).total)
        assert 1.7 < ratio < 2.6


class TestVerificationModel:
    def test_kzg_much_cheaper_than_ipa_at_scale(self, layout):
        kzg = estimate_verification_time(layout, R6I_8XLARGE, "kzg")
        ipa = estimate_verification_time(layout, R6I_8XLARGE, "ipa")
        assert ipa > 5 * kzg

    def test_verification_orders_below_proving(self, layout):
        prove = estimate_cost(layout, R6I_8XLARGE, "kzg").total
        verify = estimate_verification_time(layout, R6I_8XLARGE, "kzg")
        assert verify < prove / 100


class TestProofSizeModel:
    def test_ipa_larger_than_kzg(self, layout):
        assert (estimate_proof_size(layout, "ipa")
                > estimate_proof_size(layout, "kzg"))

    def test_fewer_columns_smaller_proof(self):
        spec = get_model("mnist", "paper")
        narrow = build_physical_layout(spec, LayoutChoices(), 10, scale_bits=8)
        wide = build_physical_layout(spec, LayoutChoices(), 30, scale_bits=8)
        assert (estimate_proof_size(narrow, "kzg")
                < estimate_proof_size(wide, "kzg"))

    def test_magnitude_matches_paper_ballpark(self, layout):
        # Table 6 proof sizes are 6-30 KB
        size = estimate_proof_size(layout, "kzg")
        assert 2_000 < size < 60_000
