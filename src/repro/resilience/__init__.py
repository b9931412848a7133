"""Resilience subsystem: typed errors and recovery counters.

This package is a typed exception taxonomy
(:mod:`~repro.resilience.errors`) and the visible recovery counters
(:mod:`~repro.resilience.events`).  Both are leaf modules: hot modules
import them without pulling the circuit stack into the import graph.
The package imports neither: callers import from the submodule
(``from repro.resilience.errors import ...``, ``from repro.resilience
import events``), so a process that only verifies never loads
``events`` and the metrics registry and logger behind it.
"""
