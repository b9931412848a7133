"""Deterministic fault injection for exercising recovery paths.

A :class:`FaultPlan` arms named *sites* in the pipeline; each site calls
:func:`maybe_inject` and, when armed, raises :class:`InjectedFault` on a
deterministic schedule.  The instrumented sites are:

==============  ==============================================================
site            where it fires
==============  ==============================================================
``cache_read``  ``ProvingKeyCache.get_or_create`` on a cache hit (simulates
                a corrupted cache entry; the checksum check then fails)
``ntt``         ``EvaluationDomain.lagrange_to_coeff_vec`` (transient
                compute fault inside a prover phase)
``transcript``  ``Transcript.challenge_scalar`` (transient fault in the
                Fiat–Shamir transcript hash)
``disk_write``  ``CheckpointStore`` stage writes (simulates a failed disk
                write; the write is retried)
``freivalds``   the Freivalds matmul synthesis (simulates a challenge
                failure; the supervisor degrades to direct matmul)
==============  ==============================================================

Plans are parsed from a spec string (the ``ZKML_FAULTS`` environment
variable, or ``zkml chaos``)::

    ZKML_FAULTS="ntt"            # fail the first ntt call, succeed after
    ZKML_FAULTS="ntt:3"          # fail the first three calls
    ZKML_FAULTS="cache_read@1"   # let one call pass, then fail once
    ZKML_FAULTS="ntt:2,transcript"   # several sites at once

The schedule is purely counter-based — same plan, same call sequence,
same failures — so every chaos run is reproducible.  ``InjectedFault`` is
deliberately **not** part of the :mod:`repro.resilience.errors` taxonomy:
if one escapes to the top of the pipeline un-recovered and un-wrapped,
the chaos harness flags the run as a failed recovery.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Optional

__all__ = [
    "FAULT_SITES",
    "ENV_VAR",
    "InjectedFault",
    "FaultPlan",
    "active_plan",
    "install",
    "uninstall",
    "use_faults",
    "maybe_inject",
]

#: Every instrumented site name (the chaos matrix iterates these).
FAULT_SITES = ("cache_read", "ntt", "transcript", "disk_write", "freivalds")

#: Environment variable holding the default fault spec.
ENV_VAR = "ZKML_FAULTS"


class InjectedFault(RuntimeError):
    """A deliberately injected failure.

    ``transient`` faults model conditions a retry can clear (the plan
    stops firing after ``times`` occurrences); the supervisor retries
    them and wraps the survivors in typed errors.
    """

    transient = True

    def __init__(self, site: str, occurrence: int):
        super().__init__("injected fault at site %r (occurrence %d)"
                         % (site, occurrence))
        self.site = site
        self.occurrence = occurrence


class _SiteState:
    __slots__ = ("times", "after", "seen", "fired")

    def __init__(self, times: int, after: int):
        self.times = times
        self.after = after
        self.seen = 0
        self.fired = 0


class FaultPlan:
    """Armed fault sites with deterministic fire schedules."""

    def __init__(self, sites: Dict[str, "_SiteState"], spec: str = ""):
        self.sites = sites
        self.spec = spec

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``site[:times][@after]`` terms, comma-separated."""
        sites: Dict[str, _SiteState] = {}
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            after = 0
            if "@" in term:
                term, after_text = term.split("@", 1)
                after = int(after_text)
            times = 1
            if ":" in term:
                term, times_text = term.split(":", 1)
                times = int(times_text)
            site = term.strip()
            if site not in FAULT_SITES:
                raise ValueError(
                    "unknown fault site %r (known: %s)"
                    % (site, ", ".join(FAULT_SITES))
                )
            sites[site] = _SiteState(times=times, after=after)
        return cls(sites, spec=spec)

    def fire(self, site: str) -> None:
        state = self.sites.get(site)
        if state is None:
            return
        state.seen += 1
        if state.seen > state.after and state.fired < state.times:
            state.fired += 1
            raise InjectedFault(site, state.seen)

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-site (seen, fired) counts — did the plan actually trigger?"""
        return {
            site: {"seen": state.seen, "fired": state.fired,
                   "times": state.times}
            for site, state in self.sites.items()
        }


_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _PLAN


def install(plan) -> FaultPlan:
    """Install a plan (or spec string) process-wide; returns the plan."""
    global _PLAN, _ENV_CHECKED
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _PLAN = plan
    _ENV_CHECKED = True
    return plan


def uninstall() -> None:
    """Remove the installed plan (``maybe_inject`` becomes a no-op)."""
    global _PLAN
    _PLAN = None


@contextmanager
def use_faults(spec):
    """Temporarily install a fault plan; restores the previous one."""
    previous = _PLAN
    plan = install(spec)
    try:
        yield plan
    finally:
        install(previous) if previous is not None else uninstall()


def maybe_inject(site: str) -> None:
    """Raise :class:`InjectedFault` if a plan arms ``site``.

    The fast path — no plan installed — is one global read, so the
    instrumented call sites cost nothing in production.  The first call
    with no plan installed reads ``ZKML_FAULTS`` from the environment.
    """
    global _ENV_CHECKED, _PLAN
    plan = _PLAN
    if plan is None:
        if _ENV_CHECKED:
            return
        _ENV_CHECKED = True
        spec = os.environ.get(ENV_VAR)
        if not spec:
            return
        plan = _PLAN = FaultPlan.parse(spec)
    plan.fire(site)
