"""Metrics registry: counters / gauges / histograms + Prometheus export.

A :class:`MetricsRegistry` holds named metric families, each optionally
split by labels::

    reg = MetricsRegistry()
    reg.counter("zkml_ntt_invocations", "NTT calls", domain="base").inc(3)
    reg.gauge("zkml_layer_rows", "rows per layer", layer="fc_1").set(120)
    print(reg.to_prometheus())

Two higher-level recorders tie the registry to the circuit pipeline:

- :func:`record_circuit_stats` — per-circuit shape statistics (rows used
  vs available, assigned cells, copy constraints, per-layer and
  per-gadget row breakdowns) from a synthesized model;
- :func:`record_prover_run` — observed operation counts (NTTs, hashes,
  commitments) plus the counts the proof's shape predicts
  (:func:`predicted_counts`), enabling the predicted-vs-actual report
  (:func:`render_predicted_vs_actual`) that checks the witness-free
  :class:`~repro.halo2.shape.ProofShape` against what the prover
  actually did.

A serving registry is also where the services keep their counts:
``stats()`` and ``status()`` read them back through
:meth:`MetricsRegistry.total`, so a served fact is recorded once.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.field import native

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "predicted_counts",
    "predicted_vs_actual",
    "record_circuit_stats",
    "record_costmodel_drift",
    "record_prover_run",
    "render_predicted_vs_actual",
]

#: Default histogram bucket upper bounds (seconds-flavored).
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)

LabelKey = Tuple[Tuple[str, str], ...]

#: Serializes every metric update: the services read their counts back
#: from the registry, so concurrent recorders must not lose an increment.
_UPDATE_LOCK = threading.Lock()


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping (spec order matters:
    backslashes first, then quotes and newlines)."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP lines escape backslashes and newlines (but not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (k, _escape_label_value(v)) for k, v in key)


def _render_value(value: float) -> str:
    if float(value).is_integer():
        return "%d" % int(value)
    return repr(float(value))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with _UPDATE_LOCK:
            self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with _UPDATE_LOCK:
            self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with _UPDATE_LOCK:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile from the cumulative buckets.

        Prometheus-style linear interpolation inside the first bucket
        whose cumulative count reaches ``q * count``.  Returns ``None``
        for an empty histogram.  Observations above the largest finite
        bucket clamp to that bound (there is no +Inf upper edge to
        interpolate toward) — same behavior as ``histogram_quantile``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        prev_cum, prev_bound = 0, 0.0
        for bound, cum in zip(self.buckets, self.counts):
            if cum >= rank:
                in_bucket = cum - prev_cum
                if in_bucket == 0:
                    return bound
                frac = (rank - prev_cum) / in_bucket
                return prev_bound + (bound - prev_bound) * min(frac, 1.0)
            prev_cum, prev_bound = cum, bound
        return self.buckets[-1] if self.buckets else None


class _Family:
    __slots__ = ("kind", "help", "instances")

    def __init__(self, kind: str, help_text: str):
        self.kind = kind
        self.help = help_text
        self.instances: Dict[LabelKey, Any] = {}


class MetricsRegistry:
    """Named metric families, exported in the Prometheus text format.

    Family/instance creation is lock-protected so concurrent recorders
    (the serve worker threads) can share one registry, and every update
    of a returned metric object takes one module lock, so a count read
    back through :meth:`total` is exact.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get(self, kind: str, name: str, help_text: str,
             labels: Dict[str, Any], factory):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    "metric %r already registered as a %s"
                    % (name, family.kind)
                )
            if help_text and not family.help:
                family.help = help_text
            key = _label_key(labels)
            metric = family.instances.get(key)
            if metric is None:
                metric = factory()
                family.instances[key] = metric
            return metric

    def counter(self, name: str, help_text: str = "", **labels: Any) -> Counter:
        return self._get("counter", name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: Any) -> Gauge:
        return self._get("gauge", name, help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get("histogram", name, help_text, labels,
                         lambda: Histogram(buckets))

    # -- reads ---------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """A counter/gauge's current value (KeyError if absent)."""
        metric = self._families[name].instances[_label_key(labels)]
        return metric.value

    def values(self, name: str) -> Dict[LabelKey, float]:
        """All label-instances of a counter/gauge family (empty if the
        family was never recorded)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return {}
            return {key: m.value for key, m in family.instances.items()}

    def total(self, name: str, **labels: Any):
        """The sum over a family's instances whose labels include
        ``labels`` (``0`` for a family never recorded); a histogram
        family gives ``(sum, count)`` summed the same way."""
        wanted = set(_label_key(labels))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0
            matching = [m for key, m in family.instances.items()
                        if wanted <= set(key)]
        if family.kind == "histogram":
            return (sum(m.sum for m in matching),
                    sum(m.count for m in matching))
        return sum(m.value for m in matching)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Nested plain-dict view (for JSON emission and tests)."""
        out: Dict[str, Dict[str, float]] = {}
        for name, family in sorted(self._families.items()):
            if family.kind == "histogram":
                continue
            out[name] = {
                _render_labels(key) or "": metric.value
                for key, metric in sorted(family.instances.items())
            }
        return out

    # -- export --------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for name, family in sorted(self._families.items()):
            if family.help:
                lines.append("# HELP %s %s" % (name,
                                               _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (name, family.kind))
            for key, metric in sorted(family.instances.items()):
                labels = _render_labels(key)
                if family.kind == "histogram":
                    # observe() keeps the counts cumulative already
                    for bound, count in zip(metric.buckets, metric.counts):
                        bucket_key = key + (("le", _render_value(bound)),)
                        lines.append("%s_bucket%s %d" % (
                            name, _render_labels(bucket_key), count))
                    inf_key = key + (("le", "+Inf"),)
                    lines.append("%s_bucket%s %d" % (
                        name, _render_labels(inf_key), metric.count))
                    lines.append("%s_sum%s %s" % (
                        name, labels, _render_value(metric.sum)))
                    lines.append("%s_count%s %d" % (name, labels, metric.count))
                else:
                    lines.append("%s%s %s" % (
                        name, labels, _render_value(metric.value)))
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())


# -- pipeline recorders ------------------------------------------------------


def record_circuit_stats(registry: MetricsRegistry, synthesized,
                         model: str = "") -> None:
    """Record a synthesized circuit's shape statistics.

    ``synthesized`` is a :class:`repro.compiler.SynthesizedModel` (duck
    typed: only ``.layout`` and ``.builder`` are read).  Row counts come
    from the same :class:`~repro.compiler.physical.PhysicalLayout` that
    ``zkml inspect`` reports, so the two always agree; cell/copy counts
    are measured on the actual witness grid.
    """
    # halo2 imports this module's package: bind the column kinds late
    from repro.halo2.column import ColumnType

    layout = synthesized.layout
    builder = synthesized.builder
    asg = builder.asg
    cs = builder.cs
    model = model or layout.spec.name
    g = registry.gauge

    g("zkml_rows_total", "grid rows (2^k)", model=model).set(asg.n)
    g("zkml_rows_used", "gadget rows actually laid out",
      model=model).set(builder.rows_used)
    g("zkml_k", "log2 grid rows", model=model).set(builder.k)
    g("zkml_table_rows", "rows claimed by the largest lookup table",
      model=model).set(builder.table_rows_needed())
    g("zkml_gadget_rows", "gadget rows per the layout simulator",
      model=model).set(layout.gadget_rows)

    for kind in (ColumnType.ADVICE, ColumnType.FIXED, ColumnType.INSTANCE):
        g("zkml_cells_assigned", "assigned advice cells", model=model,
          kind=kind.value).set(int(asg.assigned(kind).sum()))
    g("zkml_copy_constraints", "recorded equality constraints",
      model=model).set(len(asg.copies))

    g("zkml_columns", "column counts by kind", model=model,
      kind="advice").set(cs.num_advice)
    g("zkml_columns", "", model=model, kind="fixed").set(cs.num_fixed)
    g("zkml_columns", "", model=model, kind="instance").set(cs.num_instance)
    g("zkml_columns", "", model=model, kind="selector").set(cs.num_selectors)
    g("zkml_gates", "user gates", model=model).set(len(cs.gates))
    g("zkml_lookup_arguments", "lookup arguments", model=model).set(
        len(cs.lookups))

    # a lookup argument constrains every row of the grid
    g("zkml_lookup_rows", "rows constrained by lookup arguments",
      model=model).set(len(cs.lookups) * asg.n)

    for layer, rows in sorted(layout.per_layer_rows.items()):
        g("zkml_layer_rows", "gadget rows per model layer", model=model,
          layer=layer).set(rows)
    for gate in cs.gates:
        if gate.selector is None:
            continue
        rows = int(asg.selectors[gate.selector.index].sum())
        g("zkml_gadget_selector_rows", "rows with each gadget selector on",
          model=model, gate=gate.name).set(rows)


def record_prover_run(registry: MetricsRegistry, model: str,
                      observed: Dict[str, int],
                      predicted: Dict[str, float],
                      phase_seconds: Optional[Dict[str, float]] = None,
                      slots: int = 1) -> None:
    """Record one proving run's observed and predicted operation counts.

    ``slots`` is the number of inferences the proof covers (1 for
    ``prove_model``, the batch size for ``prove_batch``): the run counter
    advances by ``slots`` so a batch of 8 counts as 8 proved inferences,
    and per-phase wall-clock is additionally recorded *amortized per
    slot* — a batch must not masquerade as one fast single run.
    """
    c = registry.counter
    slots = max(1, int(slots))
    registry.gauge("zkml_field_kernel",
                   "lanes abreast in the Goldilocks kernel this process "
                   "proves on (8 or 1)",
                   lanes=native.lane_width()).set(1)
    c("zkml_prover_slots_total",
      "inference slots proved (batch proves count each slot)",
      model=model).inc(slots)
    c("zkml_prover_runs_total", "proving runs (one per proof)",
      model=model).inc()
    ntt_domains = {"ntt_base": "base", "ntt_extended": "extended"}
    hash_sites = {
        "transcript_absorbs": "transcript",
        "merkle_leaf_hashes": "merkle_leaf",
        "merkle_node_hashes": "merkle_node",
    }
    for key, count in sorted(observed.items()):
        if key in ntt_domains:
            c("zkml_ntt_invocations", "NTT transforms during proving",
              model=model, domain=ntt_domains[key]).inc(count)
        elif key in hash_sites:
            c("zkml_hash_invocations", "hash calls during proving",
              model=model, site=hash_sites[key]).inc(count)
        else:
            c("zkml_prover_ops", "other counted prover operations",
              model=model, op=key).inc(count)
    for key, count in sorted(predicted.items()):
        registry.gauge("zkml_predicted_ops",
                       "operation counts the proof's shape predicts",
                       model=model, op=key).set(count)
    for phase, secs in sorted((phase_seconds or {}).items()):
        registry.gauge("zkml_phase_seconds", "prover phase wall-clock",
                       model=model, phase=phase).set(round(secs, 6))
        if slots > 1:
            registry.gauge("zkml_slot_phase_seconds",
                           "prover phase wall-clock amortized per batch slot",
                           model=model, phase=phase).set(
                round(secs / slots, 6))
    if slots > 1:
        registry.gauge("zkml_batch_slots", "slots in the last batch proof",
                       model=model).set(slots)


def record_costmodel_drift(registry: MetricsRegistry, model: str,
                           profile: str, predicted_seconds: float,
                           actual_seconds: float) -> Dict[str, float]:
    """Record how far a hardware profile's prediction is from reality.

    The drift metric is ``|ln(predicted / actual)|`` — symmetric in
    over- and under-prediction, 0 when exact.  Returns the recorded
    values so callers (the calibration report) can embed them.
    """
    ratio = predicted_seconds / actual_seconds if actual_seconds > 0 \
        else float("inf")
    drift = abs(math.log(ratio)) if 0 < ratio < float("inf") else float("inf")
    g = registry.gauge
    g("zkml_costmodel_predicted_seconds",
      "cost-model predicted total proving seconds",
      model=model, profile=profile).set(round(predicted_seconds, 6))
    g("zkml_costmodel_actual_seconds",
      "measured proving seconds the prediction is judged against",
      model=model, profile=profile).set(round(actual_seconds, 6))
    g("zkml_costmodel_drift", "abs(ln(predicted/actual)); 0 is perfect",
      model=model, profile=profile).set(
        round(drift, 6) if drift != float("inf") else -1.0)
    return {"predicted_seconds": predicted_seconds,
            "actual_seconds": actual_seconds,
            "ratio": ratio if ratio != float("inf") else None,
            "drift": drift if drift != float("inf") else None}


# -- predicted vs actual -----------------------------------------------------


def predicted_counts(shape) -> Dict[str, int]:
    """The operation counts one proof of a circuit performs, from its
    :class:`~repro.halo2.shape.ProofShape` (``ffts_*`` are its transforms,
    under the report's historical names)."""
    return {
        "ffts_base": shape.ntt_base,
        "ffts_extended": shape.ntt_extended,
        "commitments": shape.commitments,
        "lookup_passes": shape.lookups,
        "merkle_leaf_hashes": shape.merkle_leaf_hashes,
        "merkle_node_hashes": shape.merkle_node_hashes,
    }


def predicted_vs_actual(predicted: Dict[str, int],
                        observed: Dict[str, int]) -> List[Dict[str, Any]]:
    """Rows diffing predicted counts against a proof's observed counts.

    ``ffts_base`` counts the base transforms before the prover skips
    all-zero columns, so it is compared with ``ntt_base +
    sparsity_skips``; ``ffts_extended`` with ``ntt_extended``; every
    other count with the observed counter of its own name.
    """
    actual = dict(observed)
    if "ntt_base" in observed:
        actual["ffts_base"] = (observed["ntt_base"]
                               + observed.get("sparsity_skips", 0))
    if "ntt_extended" in observed:
        actual["ffts_extended"] = observed["ntt_extended"]
    rows = []
    for key, p in predicted.items():
        if key in actual:
            rows.append({"quantity": key, "predicted": p, "actual": actual[key],
                         "ratio": round(actual[key] / p, 3) if p else None})
    return rows


def render_predicted_vs_actual(rows: List[Dict[str, Any]]) -> str:
    """A small fixed-width predicted-vs-actual report."""
    if not rows:
        return "(no predicted-vs-actual data)"
    lines = ["%-18s %10s %10s %8s" % ("quantity", "predicted", "actual",
                                      "ratio")]
    for row in rows:
        ratio = "%8.2f" % row["ratio"] if row["ratio"] is not None else "     n/a"
        lines.append("%-18s %10d %10d %s" % (
            row["quantity"], row["predicted"], row["actual"], ratio))
    return "\n".join(lines)
