"""Real end-to-end proofs of every zoo model at mini scale.

This is the pipeline anchor behind the modeled Tables 6/7: each of the
paper's eight architectures — conv nets, the recommender models, the
transformer, the diffusion UNet — is synthesized, keygen'd, proven, and
verified with the actual Python prover.
"""

import pytest
from conftest import print_table

from repro.model import get_model, model_names
from repro.runtime import prove_model

#: models proven for real in this bench (all eight; smallest grids).
MODELS = ("mnist", "resnet18", "vgg16", "mobilenet", "dlrm", "twitter",
          "gpt2", "diffusion")


def test_all_zoo_minis_prove_for_real(benchmark, mini_inputs_for):
    rows = []
    for name in MODELS:
        spec = get_model(name, "mini")
        result = prove_model(spec, mini_inputs_for(spec), scheme_name="kzg",
                             num_cols=10, scale_bits=5)
        verify_s = result.verification_seconds()  # raises if invalid
        rows.append((
            name,
            "2^%d x %d" % (result.k, result.num_cols),
            "%.2f s" % result.keygen_seconds,
            "%.2f s" % result.proving_seconds,
            "%.3f s" % verify_s,
            len(result.envelope().proof_bytes),
            result.modeled_proof_bytes,
        ))
        assert verify_s < result.proving_seconds
    print_table(
        "Real proofs: all eight architectures at mini scale (KZG)",
        ("model", "grid", "keygen", "prove", "verify", "proof B",
         "modeled halo2 proof B"),
        rows,
    )

    spec = get_model("dlrm", "mini")
    inputs = mini_inputs_for(spec)
    benchmark.pedantic(
        lambda: prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                            scale_bits=5),
        rounds=1, iterations=1,
    )
