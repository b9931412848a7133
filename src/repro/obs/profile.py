"""Layer-level proving profiler (the engine behind ``zkml profile``).

The cost model prices a circuit from aggregate counts, but "which *model
layer* is expensive?" needs attribution: this module proves a model once
under a tracer + metrics registry and joins three sources the pipeline
already produces —

- the layouter's **region map** (``builder.regions``: the contiguous row
  band each layer's gadgets claimed),
- the tracer's **spans** (``layer:<name>`` synthesis wall-clock; the
  prover phase spans),
- the witness grid itself (assigned advice cells, copy constraints, and
  per-gate selector occupancy inside each band),

into one :class:`ProfileReport`: a ranked per-layer table, a JSON
document, and (via the returned tracer) Chrome-trace / flamegraph
siblings.  The invariant the report is built on: **the per-layer row
counts plus the unattributed remainder sum exactly to the circuit's used
rows** — attribution never invents or loses rows.

Proving time cannot be measured per layer directly (the prover works on
whole columns), so ``est_prove_seconds`` *models* it by each layer's row
share — clearly labeled as modeled, and consistent with how Eqs. 1–2
scale with rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.halo2.column import ColumnType
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["LayerProfile", "ProfileReport", "profile_model",
           "attribute_layers"]

#: Schema tag for the JSON report.
SCHEMA = "zkml-profile/v1"

#: Name of the bucket holding rows outside every layer region.
UNATTRIBUTED = "(unattributed)"


@dataclass
class LayerProfile:
    """Everything attributed to one model layer's row band."""

    name: str
    kind: str
    start: int
    end: int
    rows: int
    row_share: float
    advice_cells: int
    copies: int
    #: gate name -> rows inside this band with that gate's selector on.
    selector_rows: Dict[str, int] = dataclass_field(default_factory=dict)
    #: Synthesis wall-clock from this layer's ``layer:<name>`` span(s).
    synth_seconds: float = 0.0
    #: Modeled share of proving time (row_share × total prove seconds).
    est_prove_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "rows": self.rows,
            "row_share": round(self.row_share, 6),
            "advice_cells": self.advice_cells,
            "copies": self.copies,
            "selector_rows": dict(sorted(self.selector_rows.items())),
            "synth_seconds": round(self.synth_seconds, 6),
            "est_prove_seconds": round(self.est_prove_seconds, 6),
        }


@dataclass
class ProfileReport:
    """One profiled proving run, attributed down to model layers."""

    model: str
    scheme: str
    k: int
    num_cols: int
    rows_total: int
    rows_used: int
    table_rows: int
    layers: List[LayerProfile]
    keygen_seconds: float
    prove_seconds: float
    phase_seconds: Dict[str, float]
    observed_counts: Dict[str, int]
    predicted_counts: Dict[str, float]
    #: gate name -> selector-on rows over the whole grid.
    gadget_rows: Dict[str, int] = dataclass_field(default_factory=dict)
    lookup_arguments: int = 0
    copy_constraints_total: int = 0

    def attributed_rows(self) -> int:
        """Sum of per-layer rows (including the unattributed bucket) —
        always equals :attr:`rows_used`."""
        return sum(layer.rows for layer in self.layers)

    def ranked(self) -> List[LayerProfile]:
        """Layers by descending row count (the profiler's headline sort)."""
        return sorted(self.layers, key=lambda lp: (-lp.rows, lp.start))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "model": self.model,
            "scheme": self.scheme,
            "k": self.k,
            "num_cols": self.num_cols,
            "rows_total": self.rows_total,
            "rows_used": self.rows_used,
            "attributed_rows": self.attributed_rows(),
            "table_rows": self.table_rows,
            "keygen_seconds": round(self.keygen_seconds, 6),
            "prove_seconds": round(self.prove_seconds, 6),
            "phase_seconds": {k: round(v, 6)
                              for k, v in sorted(self.phase_seconds.items())},
            "observed_counts": dict(self.observed_counts),
            "predicted_counts": dict(self.predicted_counts),
            "gadget_rows": dict(sorted(self.gadget_rows.items())),
            "lookup_arguments": self.lookup_arguments,
            "copy_constraints_total": self.copy_constraints_total,
            "layers": [layer.as_dict() for layer in self.ranked()],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def render(self, top: Optional[int] = None) -> str:
        """The ranked per-layer table ``zkml profile`` prints."""
        head = [
            "%s [%s]: %d cols x 2^%d rows, %d/%d rows used, prove %.3fs"
            % (self.model, self.scheme, self.num_cols, self.k,
               self.rows_used, self.rows_total, self.prove_seconds),
            "%-22s %-10s %7s %6s %9s %7s %9s %9s" % (
                "layer", "kind", "rows", "share", "cells", "copies",
                "synth s", "~prove s"),
        ]
        ranked = self.ranked()
        shown = ranked if top is None else ranked[:top]
        for lp in shown:
            head.append("%-22s %-10s %7d %5.1f%% %9d %7d %9.4f %9.4f" % (
                lp.name[:22], lp.kind[:10], lp.rows, 100.0 * lp.row_share,
                lp.advice_cells, lp.copies, lp.synth_seconds,
                lp.est_prove_seconds))
        if top is not None and len(ranked) > top:
            rest = ranked[top:]
            head.append("  ... and %d more layers (%d rows)" % (
                len(rest), sum(lp.rows for lp in rest)))
        if self.gadget_rows:
            busiest = sorted(self.gadget_rows.items(),
                             key=lambda kv: -kv[1])[:6]
            head.append("gadgets: " + ", ".join(
                "%s=%d" % (gate, rows) for gate, rows in busiest))
        return "\n".join(head)


def _top_level_regions(regions) -> List:
    """Regions not nested inside an earlier region (layer bands)."""
    kept: List = []
    for region in regions:
        if any(outer.start <= region.start and region.end <= outer.end
               and outer is not region for outer in kept):
            continue
        kept.append(region)
    return kept


def _advice_cells_in(asg, start: int, end: int) -> int:
    return int(asg.assigned(ColumnType.ADVICE)[:, start:end].sum())


def attribute_layers(builder, tracer: Optional[Tracer] = None,
                     prove_seconds: float = 0.0) -> List[LayerProfile]:
    """Attribute the builder's grid to its layer regions.

    Returns one :class:`LayerProfile` per top-level region plus, when the
    regions don't cover every used row, an ``(unattributed)`` bucket —
    so the row counts always sum to ``builder.rows_used``.
    """
    asg = builder.asg
    cs = builder.cs
    rows_used = builder.rows_used
    spans_by_layer: Dict[str, float] = {}
    if tracer is not None:
        for span in tracer.spans():
            if span.name.startswith("layer:"):
                name = span.name[len("layer:"):]
                spans_by_layer[name] = (spans_by_layer.get(name, 0.0)
                                       + span.duration)

    bands = _top_level_regions(builder.regions)
    profiles: List[LayerProfile] = []
    covered = 0
    for region in bands:
        start, end = region.start, min(region.end, rows_used)
        rows = max(0, end - start)
        covered += rows
        share = rows / rows_used if rows_used else 0.0
        selector_rows = {}
        for gate in cs.gates:
            if gate.selector is None:
                continue
            on = int(asg.selectors[gate.selector.index, start:end].sum())
            if on:
                selector_rows[gate.name] = on
        profiles.append(LayerProfile(
            name=region.name,
            kind=region.kind,
            start=start,
            end=end,
            rows=rows,
            row_share=share,
            advice_cells=_advice_cells_in(asg, start, end),
            copies=0,
            selector_rows=selector_rows,
            synth_seconds=spans_by_layer.get(region.name, 0.0),
            est_prove_seconds=share * prove_seconds,
        ))

    # copy constraints: attributed to the band containing the copy's
    # first advice endpoint (the cell being constrained back to its home)
    def band_index(row: int) -> Optional[int]:
        for i, lp in enumerate(profiles):
            if lp.start <= row < lp.end:
                return i
        return None

    unattributed_copies = 0
    for col_a, row_a, col_b, row_b in asg.copy_cells():
        row = None
        if col_a.kind is ColumnType.ADVICE:
            row = row_a
        elif col_b.kind is ColumnType.ADVICE:
            row = row_b
        index = band_index(row) if row is not None else None
        if index is None:
            unattributed_copies += 1
        else:
            profiles[index].copies += 1

    leftover = rows_used - covered
    if leftover > 0 or unattributed_copies:
        share = leftover / rows_used if rows_used else 0.0
        profiles.append(LayerProfile(
            name=UNATTRIBUTED,
            kind="",
            start=-1,
            end=-1,
            rows=max(0, leftover),
            row_share=max(0.0, share),
            advice_cells=0,
            copies=unattributed_copies,
            est_prove_seconds=max(0.0, share) * prove_seconds,
        ))
    return profiles


def profile_model(
    spec,
    inputs: Dict[str, np.ndarray],
    scheme_name: str = "kzg",
    num_cols: int = 10,
    scale_bits: int = 5,
    lookup_bits: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
    use_pk_cache: bool = True,
):
    """Prove one inference under full observability and attribute it.

    Returns ``(report, tracer, result)``: the :class:`ProfileReport`, the
    :class:`~repro.obs.trace.Tracer` holding the run's spans (write it
    out for the Chrome-trace / flamegraph siblings), and the underlying
    :class:`~repro.runtime.pipeline.ProveResult`.
    """
    from repro.obs.trace import use_tracer
    from repro.runtime.pipeline import prove_model

    tracer = Tracer()
    registry = registry if registry is not None else MetricsRegistry()
    with use_tracer(tracer):
        result = prove_model(
            spec, inputs, scheme_name=scheme_name, num_cols=num_cols,
            scale_bits=scale_bits, lookup_bits=lookup_bits, tracer=tracer,
            metrics=registry, use_pk_cache=use_pk_cache, keep_synthesized=True,
        )
    builder = result.synthesized.builder
    layers = attribute_layers(builder, tracer=tracer,
                              prove_seconds=result.proving_seconds)
    gadget_rows = {}
    for gate in builder.cs.gates:
        if gate.selector is None:
            continue
        on = int(builder.asg.selectors[gate.selector.index].sum())
        if on:
            gadget_rows[gate.name] = on
    report = ProfileReport(
        model=spec.name,
        scheme=scheme_name,
        k=builder.k,
        num_cols=num_cols,
        rows_total=builder.asg.n,
        rows_used=builder.rows_used,
        table_rows=builder.table_rows_needed(),
        layers=layers,
        keygen_seconds=result.keygen_seconds,
        prove_seconds=result.proving_seconds,
        phase_seconds=dict(result.phase_seconds),
        observed_counts=dict(result.observed_counts),
        predicted_counts=dict(result.predicted_counts),
        gadget_rows=gadget_rows,
        lookup_arguments=len(builder.cs.lookups),
        copy_constraints_total=len(builder.asg.copies),
    )
    if registry is not None:
        for lp in layers:
            registry.gauge("zkml_profile_layer_rows",
                           "profiler row attribution per layer",
                           model=spec.name, layer=lp.name).set(lp.rows)
            registry.gauge("zkml_profile_layer_synth_seconds",
                           "profiler synthesis wall-clock per layer",
                           model=spec.name, layer=lp.name).set(
                round(lp.synth_seconds, 6))
    return report, tracer, result
