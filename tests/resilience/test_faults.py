"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, InjectedFault


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


class TestPlanParsing:
    def test_single_site_defaults(self):
        plan = FaultPlan.parse("ntt")
        state = plan.sites["ntt"]
        assert state.times == 1 and state.after == 0

    def test_times_and_after(self):
        plan = FaultPlan.parse("cache_read:3@2")
        state = plan.sites["cache_read"]
        assert state.times == 3 and state.after == 2

    def test_multiple_sites(self):
        plan = FaultPlan.parse("ntt:2, transcript")
        assert set(plan.sites) == {"ntt", "transcript"}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("reactor_core")


class TestSchedule:
    def test_fires_exactly_times(self):
        plan = FaultPlan.parse("ntt:2")
        fired = 0
        for _ in range(5):
            try:
                plan.fire("ntt")
            except InjectedFault:
                fired += 1
        assert fired == 2

    def test_after_skips_initial_calls(self):
        plan = FaultPlan.parse("ntt@2")
        plan.fire("ntt")
        plan.fire("ntt")  # first two pass
        with pytest.raises(InjectedFault):
            plan.fire("ntt")

    def test_deterministic_replay(self):
        # same spec, same call sequence -> identical failure pattern
        def pattern(spec):
            plan = FaultPlan.parse(spec)
            out = []
            for _ in range(6):
                try:
                    plan.fire("transcript")
                    out.append("ok")
                except InjectedFault:
                    out.append("boom")
            return out

        assert pattern("transcript:2@1") == pattern("transcript:2@1")
        assert pattern("transcript:2@1") == ["ok", "boom", "boom",
                                             "ok", "ok", "ok"]

    def test_report_counts_seen_and_fired(self):
        plan = FaultPlan.parse("ntt")
        with pytest.raises(InjectedFault):
            plan.fire("ntt")
        plan.fire("ntt")
        assert plan.report()["ntt"] == {"seen": 2, "fired": 1, "times": 1}


class TestInstallation:
    def test_maybe_inject_noop_without_plan(self):
        faults.maybe_inject("ntt")  # must not raise

    def test_use_faults_restores_previous(self):
        outer = faults.install("ntt")
        with faults.use_faults("transcript") as inner:
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer

    def test_injected_fault_is_not_typed(self):
        # InjectedFault escaping un-wrapped must look like an unhandled
        # crash, so chaos runs can detect missed recovery paths
        from repro.resilience.errors import ResilienceError

        assert not issubclass(InjectedFault, ResilienceError)
        assert InjectedFault.transient is True

    def test_env_var_spec(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "ntt")
        faults.uninstall()
        faults._ENV_CHECKED = False
        with pytest.raises(InjectedFault):
            faults.maybe_inject("ntt")
        faults.uninstall()
