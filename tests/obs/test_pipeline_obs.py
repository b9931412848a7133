"""End-to-end observability: spans, metrics, and the no-op guarantee."""

import json
import pickle

import numpy as np
import pytest

from repro.model import get_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import prove_model


def model_inputs(spec, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.uniform(-0.5, 0.5, shape)
        for name, shape in spec.inputs.items()
    }


@pytest.fixture(scope="module")
def traced_run():
    spec = get_model("dlrm", "mini")
    inputs = model_inputs(spec)
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer):
        result = prove_model(spec, inputs, metrics=registry)
        result.verification_seconds()
    return spec, inputs, tracer, registry, result


class TestSpanTree:
    def test_covers_pipeline_stages(self, traced_run):
        _, _, tracer, _, _ = traced_run
        names = {s.name for s in tracer.spans()}
        for required in ("prove_model", "synthesize", "layout", "witness",
                        "keygen", "prove", "commit", "helpers", "quotient",
                        "openings", "verify"):
            assert required in names, "missing span %r" % required

    def test_phases_are_children_of_prove(self, traced_run):
        _, _, tracer, _, _ = traced_run
        spans = {s.name: s for s in tracer.spans()}
        prove = spans["prove"]
        for phase in ("commit", "helpers", "quotient", "openings"):
            assert spans[phase].parent_id == prove.span_id
        assert prove.parent_id == spans["prove_model"].span_id

    def test_keygen_attrs(self, traced_run):
        _, _, tracer, _, result = traced_run
        (keygen,) = [s for s in tracer.spans() if s.name == "keygen"]
        assert keygen.attrs["k"] == result.k
        assert keygen.attrs["scheme"] == "kzg"
        assert "pk_cache_hit" in keygen.attrs

    def test_chrome_export_loadable(self, traced_run, tmp_path):
        _, _, tracer, _, _ = traced_run
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"], "no events exported"
        # complete events plus the "M" metadata records naming the lanes
        assert all(e["ph"] in ("X", "M") for e in doc["traceEvents"])
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestMetricsRecording:
    def test_observed_counts_match_metrics(self, traced_run):
        _, _, _, registry, result = traced_run
        assert result.observed_counts["ntt_base"] > 0
        assert registry.value(
            "zkml_ntt_invocations", model=result.spec_name, domain="base"
        ) == result.observed_counts["ntt_base"]
        assert registry.value(
            "zkml_prover_ops", model=result.spec_name, op="commitments"
        ) == result.observed_counts["commitments"]

    def test_predicted_vs_actual_report(self, traced_run):
        _, _, _, _, result = traced_run
        rows = result.predicted_vs_actual()
        assert {r["quantity"] for r in rows} == {
            "ffts_base", "ffts_extended", "commitments", "lookup_passes",
            "merkle_leaf_hashes", "merkle_node_hashes"}
        for row in rows:
            assert row["actual"] > 0 and row["predicted"] > 0
        # the proof's shape counts what the prover does, exactly
        assert all(row["ratio"] == 1.0 for row in rows)

    def test_circuit_stats_present(self, traced_run):
        _, _, _, registry, result = traced_run
        model = result.spec_name
        assert registry.value("zkml_rows_total", model=model) == 1 << result.k
        used = registry.value("zkml_rows_used", model=model)
        assert 0 < used <= 1 << result.k


class TestNoOpGuarantee:
    def test_proof_bytes_identical_with_and_without_tracing(self):
        # the acceptance bar: enabling observability must not perturb the
        # transcript.  (The untraced path is also the default, so this
        # doubles as a regression test for pre-PR byte equality.)
        spec = get_model("dlrm", "mini")
        inputs = model_inputs(spec)
        plain = prove_model(spec, inputs, use_pk_cache=False)
        with use_tracer(Tracer()):
            traced = prove_model(spec, inputs, use_pk_cache=False,
                                 metrics=MetricsRegistry())
        assert pickle.dumps(plain.proof) == pickle.dumps(traced.proof)

    def test_prove_result_api_unchanged(self, traced_run):
        _, _, _, _, result = traced_run
        assert set(result.phase_seconds) == {"commit", "helpers", "quotient",
                                             "openings"}
        assert result.proving_seconds > 0
