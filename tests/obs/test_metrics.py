"""Tests for the metrics registry, exporters, and circuit recorders."""

from types import SimpleNamespace

import pytest

from repro.gadgets import AddGadget, CircuitBuilder
from repro.halo2.column import ColumnType
from repro.obs.metrics import (
    MetricsRegistry,
    predicted_vs_actual,
    record_circuit_stats,
    record_costmodel_drift,
    record_prover_run,
    render_predicted_vs_actual,
)
from repro.tensor import Entry


class TestPrimitives:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        assert reg.value("c") == 3

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5)
        reg.gauge("g").inc(-2)
        assert reg.value("g") == 3

    def test_labels_are_separate_instances(self):
        reg = MetricsRegistry()
        reg.counter("ops", op="fft").inc(4)
        reg.counter("ops", op="msm").inc(1)
        assert reg.value("ops", op="fft") == 4
        assert reg.value("ops", op="msm") == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(100.0)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 105.5" in text
        assert "lat_count 3" in text


class TestPrometheusExport:
    def test_text_format(self):
        reg = MetricsRegistry()
        reg.counter("zkml_ntts", "NTT calls", domain="base").inc(7)
        reg.gauge("zkml_k", "log2 rows", model="toy").set(9)
        text = reg.to_prometheus()
        assert "# HELP zkml_ntts NTT calls" in text
        assert "# TYPE zkml_ntts counter" in text
        assert 'zkml_ntts{domain="base"} 7' in text
        assert "# TYPE zkml_k gauge" in text
        assert 'zkml_k{model="toy"} 9' in text
        assert text.endswith("\n")

    def test_write(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "m.prom"
        reg.write(str(path))
        assert path.read_text() == reg.to_prometheus()

    def test_label_value_escaping(self):
        # spec order: backslashes first, then quotes and newlines —
        # escaping in the wrong order double-escapes the quote's backslash
        reg = MetricsRegistry()
        reg.counter("c", layer='conv "a"\\b\nrest').inc()
        text = reg.to_prometheus()
        assert r'c{layer="conv \"a\"\\b\nrest"} 1' in text
        assert "\n\n" not in text  # the raw newline must not survive

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", 'rows\nper "layer" \\ band').inc()
        text = reg.to_prometheus()
        # HELP escapes backslash + newline but NOT quotes (per the spec)
        assert '# HELP c rows\\nper "layer" \\\\ band' in text

    def test_deterministic_ordering(self):
        # families sort by name, instances by label key — insertion order
        # must not leak into the export (diffs of two runs stay clean)
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        reg1.counter("b", op="y").inc()
        reg1.counter("b", op="x").inc()
        reg1.gauge("a").set(1)
        reg2.gauge("a").set(1)
        reg2.counter("b", op="x").inc()
        reg2.counter("b", op="y").inc()
        assert reg1.to_prometheus() == reg2.to_prometheus()
        text = reg1.to_prometheus()
        assert text.index("# TYPE a ") < text.index("# TYPE b ")
        assert text.index('op="x"') < text.index('op="y"')


class TestHistogramQuantiles:
    def test_empty_histogram_returns_none(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        assert h.quantile(0.5) is None
        assert h.quantile(0.0) is None
        # and the export still renders zeroed buckets, not garbage
        text = reg.to_prometheus()
        assert 'lat_bucket{le="1"} 0' in text
        assert "lat_count 0" in text

    def test_single_sample(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0, 100.0))
        h.observe(5.0)
        # the one sample lands in (1, 10]; every quantile interpolates
        # inside that bucket
        for q in (0.1, 0.5, 1.0):
            est = h.quantile(q)
            assert 1.0 <= est <= 10.0

    def test_interpolation_midpoint(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.0, 10.0))
        for _ in range(2):
            h.observe(5.0)
        # both samples in (0, 10]: the median ranks halfway through the
        # bucket, so linear interpolation lands on 5.0 exactly
        assert h.quantile(0.5) == 5.0

    def test_overflow_clamps_to_largest_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        h.observe(1000.0)  # beyond every finite bucket
        assert h.quantile(0.99) == 10.0

    def test_rejects_out_of_range_q(self):
        h = MetricsRegistry().histogram("lat")
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)


class TestTotal:
    def test_sums_the_instances_whose_labels_match(self):
        reg = MetricsRegistry()
        reg.counter("ops", worker="0", op="ntt").inc(3)
        reg.counter("ops", worker="0", op="hash").inc(4)
        reg.counter("ops", worker="1", op="ntt").inc(5)
        assert reg.total("ops") == 12
        assert reg.total("ops", worker="0") == 7
        assert reg.total("ops", worker=1) == 5  # label values compare as str
        assert reg.total("ops", worker="0", op="ntt") == 3
        assert reg.total("ops", worker="2") == 0

    def test_an_unrecorded_family_totals_zero(self):
        reg = MetricsRegistry()
        assert reg.total("never") == 0
        assert reg.values("never") == {}

    def test_gauges_total_like_counters(self):
        reg = MetricsRegistry()
        reg.gauge("depth", model="a").set(2)
        reg.gauge("depth", model="b").set(5)
        assert reg.total("depth") == 7

    def test_a_histogram_gives_sum_and_count(self):
        reg = MetricsRegistry()
        reg.histogram("occ", model="a").observe(4)
        reg.histogram("occ", model="a").observe(2)
        reg.histogram("occ", model="b").observe(1)
        assert reg.total("occ") == (7, 3)
        assert reg.total("occ", model="a") == (6, 2)
        assert reg.total("occ", model="c") == (0, 0)


class TestCircuitStats:
    def toy(self):
        """One AddGadget row: 12 = 5 + 7.  Hand-countable."""
        builder = CircuitBuilder(k=4, num_cols=10, scale_bits=6)
        gadget = builder.gadget(AddGadget)
        gadget.assign_row([(Entry(5), Entry(7))])
        layout = SimpleNamespace(
            per_layer_rows={"add0": 1},
            gadget_rows=1,
            spec=SimpleNamespace(name="toy"),
        )
        return SimpleNamespace(layout=layout, builder=builder)

    def test_hand_counted_toy_circuit(self):
        synthesized = self.toy()
        builder = synthesized.builder
        reg = MetricsRegistry()
        record_circuit_stats(reg, synthesized, model="toy")

        assert reg.value("zkml_rows_total", model="toy") == 16  # 2^4
        assert reg.value("zkml_k", model="toy") == 4
        assert reg.value("zkml_rows_used", model="toy") == 1
        assert reg.value("zkml_gadget_rows", model="toy") == 1
        # one add: a, b, and z occupy three advice cells on one row
        advice_cells = builder.asg.assigned(ColumnType.ADVICE).sum()
        assert reg.value("zkml_cells_assigned", model="toy",
                         kind="advice") == advice_cells == 3
        assert reg.value("zkml_cells_assigned", model="toy",
                         kind="instance") == 0
        assert reg.value("zkml_copy_constraints", model="toy") == len(
            builder.asg.copies)
        assert reg.value("zkml_columns", model="toy", kind="advice") == 10
        assert reg.value("zkml_gates", model="toy") == len(builder.cs.gates)
        assert reg.value("zkml_layer_rows", model="toy", layer="add0") == 1
        # the add selector is on for exactly the one assigned row
        assert reg.value("zkml_gadget_selector_rows", model="toy",
                         gate="add") == 1

    def test_lookup_rows(self):
        synthesized = self.toy()
        reg = MetricsRegistry()
        record_circuit_stats(reg, synthesized, model="toy")
        lookups = len(synthesized.builder.cs.lookups)
        assert reg.value("zkml_lookup_rows", model="toy") == lookups * 16


class TestProverRun:
    def test_records_counters_and_predictions(self):
        reg = MetricsRegistry()
        observed = {"ntt_base": 10, "ntt_extended": 20, "commitments": 5,
                    "transcript_absorbs": 40, "lookup_passes": 2}
        predicted = {"ffts_base": 9.5, "msms": 5.0, "lookup_passes": 2.0}
        record_prover_run(reg, "toy", observed, predicted,
                          phase_seconds={"commit": 0.25})
        assert reg.value("zkml_ntt_invocations", model="toy",
                         domain="base") == 10
        assert reg.value("zkml_ntt_invocations", model="toy",
                         domain="extended") == 20
        assert reg.value("zkml_hash_invocations", model="toy",
                         site="transcript") == 40
        assert reg.value("zkml_prover_ops", model="toy",
                         op="commitments") == 5
        assert reg.value("zkml_predicted_ops", model="toy",
                         op="msms") == 5.0
        assert reg.value("zkml_phase_seconds", model="toy",
                         phase="commit") == 0.25


class TestBatchSlotAttribution:
    def test_single_run_defaults(self):
        reg = MetricsRegistry()
        record_prover_run(reg, "toy", {"ntt_base": 4}, {},
                          phase_seconds={"commit": 0.2})
        assert reg.value("zkml_prover_runs_total", model="toy") == 1
        assert reg.value("zkml_prover_slots_total", model="toy") == 1
        # no amortized family for an unbatched run
        text = reg.to_prometheus()
        assert "zkml_slot_phase_seconds" not in text
        assert "zkml_batch_slots" not in text

    def test_batch_attributed_per_slot(self):
        # a batch of 4 is 4 proved inferences in ONE run — the whole-batch
        # latency must not be reported as if it were a single inference
        reg = MetricsRegistry()
        record_prover_run(reg, "toy", {"ntt_base": 4}, {},
                          phase_seconds={"commit": 0.8}, slots=4)
        assert reg.value("zkml_prover_runs_total", model="toy") == 1
        assert reg.value("zkml_prover_slots_total", model="toy") == 4
        assert reg.value("zkml_phase_seconds", model="toy",
                         phase="commit") == 0.8
        assert reg.value("zkml_slot_phase_seconds", model="toy",
                         phase="commit") == 0.2
        assert reg.value("zkml_batch_slots", model="toy") == 4


class TestCostModelDrift:
    def test_drift_is_symmetric_log_ratio(self):
        reg = MetricsRegistry()
        over = record_costmodel_drift(reg, "toy", "p", 2.0, 1.0)
        under = record_costmodel_drift(reg, "toy", "q", 0.5, 1.0)
        assert over["drift"] == pytest.approx(under["drift"])
        assert reg.value("zkml_costmodel_drift", model="toy",
                         profile="p") == pytest.approx(over["drift"],
                                                       abs=1e-6)
        assert reg.value("zkml_costmodel_predicted_seconds", model="toy",
                         profile="p") == 2.0
        assert reg.value("zkml_costmodel_actual_seconds", model="toy",
                         profile="p") == 1.0

    def test_exact_prediction_is_zero_drift(self):
        reg = MetricsRegistry()
        rep = record_costmodel_drift(reg, "toy", "p", 1.5, 1.5)
        assert rep["drift"] == 0.0


class TestPredictedVsActual:
    def test_rows_and_ratio(self):
        rows = predicted_vs_actual(
            {"ffts_base": 10, "commitments": 4},
            {"ntt_base": 11, "sparsity_skips": 1, "commitments": 4},
        )
        by_name = {r["quantity"]: r for r in rows}
        # base transforms are predicted before the prover skips zero columns
        assert by_name["ffts_base"]["actual"] == 12
        assert by_name["ffts_base"]["ratio"] == 1.2
        assert by_name["commitments"]["ratio"] == 1.0

    def test_render(self):
        rows = predicted_vs_actual({"ffts_base": 10}, {"ntt_base": 12})
        text = render_predicted_vs_actual(rows)
        assert "quantity" in text and "ffts_base" in text
        assert render_predicted_vs_actual([]) == "(no predicted-vs-actual data)"
