"""Table 6: end-to-end proving/verification/proof-size, KZG backend.

Full-scale models are costed with the optimizer + cost model on the
paper's modeled hardware (our substrate is a Python simulator, so
absolute seconds are modeled; see DESIGN.md).  The smallest model is
additionally *actually proven* at mini scale with the real prover, end to
end, to anchor the pipeline.
"""

import pytest
from conftest import print_table
from paper_data import TABLE6_KZG

from repro.model import get_model, model_names
from repro.runtime import estimate_model, prove_model

MODEL_ORDER = ("gpt2", "diffusion", "twitter", "dlrm", "mobilenet",
               "resnet18", "vgg16", "mnist")


@pytest.fixture(scope="module")
def kzg_estimates():
    return {name: estimate_model(name, "kzg", scale_bits=12,
                                 include_freivalds=True)
            for name in model_names()}


def test_table6_kzg_end_to_end(benchmark, kzg_estimates, mini_inputs_for):
    rows = []
    for name in MODEL_ORDER:
        est = kzg_estimates[name]
        paper_prove, paper_verify, paper_bytes = TABLE6_KZG[name]
        rows.append((
            name,
            "%.1f s" % est.proving_seconds, "%.2f s" % paper_prove,
            "%.4f s" % est.verification_seconds, "%.4f s" % paper_verify,
            est.proof_bytes, paper_bytes,
        ))
    print_table(
        "Table 6: KZG end-to-end (modeled full scale)",
        ("model", "prove (ours)", "prove (paper)", "verify (ours)",
         "verify (paper)", "proof B (ours)", "proof B (paper)"),
        rows,
    )

    times = {n: kzg_estimates[n].proving_seconds for n in MODEL_ORDER}
    # shape: the big four (gpt2/diffusion/mobilenet-scale) dominate the
    # small models by an order of magnitude, as in the paper
    assert min(times[n] for n in ("gpt2", "diffusion", "mobilenet")) > \
        10 * max(times[n] for n in ("mnist", "dlrm"))
    # verification is orders of magnitude below proving for every model
    for name in MODEL_ORDER:
        est = kzg_estimates[name]
        assert est.verification_seconds < est.proving_seconds / 100
    # proof sizes are KB-scale, like the paper's 4-38 KB
    for name in MODEL_ORDER:
        assert 2_000 < kzg_estimates[name].proof_bytes < 60_000

    # anchor: actually prove the smallest model end to end (mini scale)
    spec = get_model("mnist", "mini")
    inputs = mini_inputs_for(spec)

    def prove_once():
        return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                           scale_bits=5)

    result = benchmark.pedantic(prove_once, rounds=1, iterations=1)
    assert result.verification_seconds() < result.proving_seconds
    print("\nreal mini-scale proof (mnist-mini, KZG): prove %.2fs, "
          "verify %.4fs, %d proof bytes (a halo2-KZG proof of this "
          "circuit: %d modeled)"
          % (result.proving_seconds, result.verification_seconds(),
             len(result.envelope().proof_bytes),
             result.modeled_proof_bytes))
