"""Tests for the layer-level proving profiler and ``zkml profile``."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.halo2.column import ColumnType
from repro.model import get_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import UNATTRIBUTED, attribute_layers, profile_model


@pytest.fixture(autouse=True)
def reset_log_level():
    from repro.obs import log as obs_log

    yield
    obs_log.set_level(obs_log.INFO)


def model_inputs(spec, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.uniform(-0.5, 0.5, shape)
        for name, shape in spec.inputs.items()
    }


@pytest.fixture(scope="module")
def mnist_profile():
    spec = get_model("mnist", "mini")
    registry = MetricsRegistry()
    report, tracer, result = profile_model(spec, model_inputs(spec),
                                           registry=registry)
    return report, tracer, result, registry


class TestAttribution:
    def test_rows_sum_exactly_to_rows_used(self, mnist_profile):
        # the acceptance bar: attribution never invents or loses rows
        report, _, _, _ = mnist_profile
        assert report.attributed_rows() == report.rows_used
        assert sum(lp.row_share for lp in report.layers) == \
            pytest.approx(1.0)

    def test_every_row_claiming_layer_appears(self, mnist_profile):
        # layers that laid out rows must each get a profile entry
        # (flatten claims no rows, so it legitimately has none)
        report, _, result, _ = mnist_profile
        names = {lp.name for lp in report.layers}
        for layer, rows in result.synthesized.layout.per_layer_rows.items():
            if rows > 0:
                assert layer in names

    def test_bands_are_disjoint_and_ordered(self, mnist_profile):
        report, _, _, _ = mnist_profile
        real = [lp for lp in report.layers if lp.name != UNATTRIBUTED]
        for before, after in zip(real, real[1:]):
            assert before.end <= after.start

    def test_cells_and_copies_match_circuit_totals(self, mnist_profile):
        report, _, result, _ = mnist_profile
        asg = result.synthesized.builder.asg
        total_cells = asg.assigned(ColumnType.ADVICE).sum()
        # every assigned advice cell lives inside some layer band (mnist
        # layers cover all used rows), and every copy lands somewhere
        assert sum(lp.advice_cells for lp in report.layers) == total_cells
        assert sum(lp.copies for lp in report.layers) == len(asg.copies)

    def test_selector_rows_match_grid(self, mnist_profile):
        report, _, result, _ = mnist_profile
        builder = result.synthesized.builder
        per_gate = {}
        for lp in report.layers:
            for gate, rows in lp.selector_rows.items():
                per_gate[gate] = per_gate.get(gate, 0) + rows
        for gate in builder.cs.gates:
            if gate.selector is None:
                continue
            on = sum(builder.asg.selectors[gate.selector.index])
            if on:
                assert per_gate.get(gate.name, 0) == on == \
                    report.gadget_rows[gate.name]

    def test_synth_seconds_from_layer_spans(self, mnist_profile):
        report, tracer, _, _ = mnist_profile
        spanned = {s.name[len("layer:"):] for s in tracer.spans()
                   if s.name.startswith("layer:")}
        for lp in report.layers:
            if lp.name in spanned:
                assert lp.synth_seconds > 0

    def test_est_prove_seconds_partitions_total(self, mnist_profile):
        report, _, _, _ = mnist_profile
        assert sum(lp.est_prove_seconds for lp in report.layers) == \
            pytest.approx(report.prove_seconds)

    def test_unattributed_bucket_covers_gap(self):
        # a builder whose regions don't cover every used row: the gap
        # must land in the (unattributed) bucket, keeping the sum exact
        from repro.gadgets import AddGadget, CircuitBuilder
        from repro.tensor import Entry

        builder = CircuitBuilder(k=4, num_cols=10, scale_bits=6)
        with builder.region("layer0", "add"):
            builder.gadget(AddGadget).assign_row([(Entry(5), Entry(7))])
        # rows assigned outside any region
        builder.gadget(AddGadget).assign_row([(Entry(1), Entry(2))])
        profiles = attribute_layers(builder)
        by_name = {lp.name: lp for lp in profiles}
        assert UNATTRIBUTED in by_name
        assert sum(lp.rows for lp in profiles) == builder.rows_used
        assert by_name[UNATTRIBUTED].rows > 0


class TestReport:
    def test_json_roundtrip(self, mnist_profile, tmp_path):
        report, _, _, _ = mnist_profile
        path = tmp_path / "p.json"
        report.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == "zkml-profile/v1"
        assert doc["attributed_rows"] == doc["rows_used"]
        assert doc["layers"][0]["rows"] >= doc["layers"][-1]["rows"]

    def test_render_ranked_table(self, mnist_profile):
        report, _, _, _ = mnist_profile
        text = report.render(top=2)
        assert "mnist-mini" in text
        assert "more layers" in text  # truncation line for top=2
        assert "gadgets:" in text

    def test_registry_gets_layer_gauges(self, mnist_profile):
        report, _, _, registry = mnist_profile
        top = report.ranked()[0]
        assert registry.value("zkml_profile_layer_rows",
                              model="mnist-mini",
                              layer=top.name) == top.rows


class TestProfileCommand:
    def test_cli_writes_all_three_artifacts(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        rc = main(["profile", "--model", "dlrm", "--out", str(out),
                   "--top", "3"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["attributed_rows"] == doc["rows_used"]
        trace = json.loads((tmp_path / "prof.trace.json").read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "prove_model" in names and "commit" in names
        folded = (tmp_path / "prof.folded").read_text()
        assert "prove_model" in folded
        assert "ranked" not in folded  # folded format is stacks only
        table = capsys.readouterr().out
        assert "layer" in table and "rows" in table
