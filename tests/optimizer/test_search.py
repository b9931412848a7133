"""Tests for Algorithm 1 (optimize_layout) and the hardware profiles."""

import pytest

from repro.compiler import LayoutInfeasible
from repro.model import get_model
from repro.optimizer import (
    PROFILES,
    R6I_8XLARGE,
    R6I_32XLARGE,
    benchmark_operations,
    fixed_configuration_cost,
    optimize_layout,
    profile_for_model,
)


class TestHardwareProfiles:
    def test_profiles_registered(self):
        assert set(PROFILES) == {"r6i.8xlarge", "r6i.16xlarge", "r6i.32xlarge"}

    def test_more_cores_faster(self):
        assert R6I_32XLARGE.fft(20) < R6I_8XLARGE.fft(20)

    def test_interpolation_and_extrapolation(self):
        assert R6I_8XLARGE.fft(29) > R6I_8XLARGE.fft(28)
        assert R6I_8XLARGE.msm(9) < R6I_8XLARGE.msm(10)

    def test_paper_machine_assignment(self):
        assert profile_for_model("gpt2").name == "r6i.32xlarge"
        assert profile_for_model("mobilenet").name == "r6i.16xlarge"
        assert profile_for_model("mnist").name == "r6i.8xlarge"

    def test_memory_model(self):
        assert not R6I_8XLARGE.fits_memory(28, 100, 4)
        assert R6I_8XLARGE.fits_memory(16, 50, 4)

    def test_local_benchmark_measures(self):
        # rungs four apart: adjacent small-k FFTs both sit a few
        # microseconds above the foreign-call floor and may time in
        # either order, while 16x the work always costs more
        profile = benchmark_operations(ks=(8, 12))
        assert profile.fft(8) > 0
        assert profile.fft(12) > profile.fft(8)
        assert profile.t_field > 0
        # cached on second call
        assert benchmark_operations(ks=(8, 12)) is profile


class TestOptimizeLayout:
    def test_finds_a_layout(self):
        res = optimize_layout(get_model("mnist", "paper"), R6I_8XLARGE,
                              scale_bits=10)
        assert res.best.cost.total > 0
        assert res.layout.num_cols >= 6
        assert len(res.candidates) > 50

    def test_beats_fixed_configuration(self):
        spec = get_model("mnist", "paper")
        res = optimize_layout(spec, R6I_8XLARGE, scale_bits=10)
        fixed = fixed_configuration_cost(spec, R6I_8XLARGE, num_cols=40,
                                         scale_bits=10)
        assert res.proving_time <= fixed.cost.total

    def test_size_objective_minimizes_columns(self):
        spec = get_model("mnist", "paper")
        time_opt = optimize_layout(spec, R6I_8XLARGE, scale_bits=10,
                                   objective="time")
        size_opt = optimize_layout(spec, R6I_8XLARGE, scale_bits=10,
                                   objective="size")
        assert size_opt.layout.num_cols <= time_opt.layout.num_cols
        assert size_opt.proof_size <= time_opt.proof_size

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            optimize_layout(get_model("mnist", "paper"), R6I_8XLARGE,
                            objective="vibes")

    def test_pruning_reduces_work_same_plan(self):
        spec = get_model("mnist", "paper")
        pruned = optimize_layout(spec, R6I_8XLARGE, scale_bits=10, prune=True)
        full = optimize_layout(spec, R6I_8XLARGE, scale_bits=10, prune=False)
        assert len(full.candidates) > len(pruned.candidates)
        assert full.layout.num_cols == pruned.layout.num_cols
        assert full.layout.k == pruned.layout.k
        assert full.best.layout.plan.is_uniform

    def test_restricted_gadgets_slower(self):
        spec = get_model("dlrm", "paper")
        best = optimize_layout(spec, R6I_8XLARGE, scale_bits=10)
        restricted = optimize_layout(spec, R6I_8XLARGE, scale_bits=10,
                                     restrict_gadgets=True)
        assert restricted.proving_time > best.proving_time

    def test_infeasible_when_memory_too_small(self):
        from repro.optimizer.hardware import HardwareProfile

        tiny = HardwareProfile(
            name="tiny", cores=1, ram_gb=0,
            t_fft={k: 1.0 for k in range(10, 31)},
            t_msm={k: 1.0 for k in range(10, 29)},
            t_lookup={k: 1.0 for k in range(10, 29)},
            t_field=1e-9,
        )
        with pytest.raises(LayoutInfeasible):
            optimize_layout(get_model("mnist", "paper"), tiny, scale_bits=10)

    def test_freivalds_helps_gpt2(self):
        spec = get_model("gpt2", "paper")
        with_f = optimize_layout(spec, R6I_32XLARGE, scale_bits=10)
        without = optimize_layout(spec, R6I_32XLARGE, scale_bits=10,
                                  include_freivalds=False)
        assert with_f.proving_time < without.proving_time
