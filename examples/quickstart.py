"""Quickstart: define a model, prove one inference, verify the proof.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.model import GraphBuilder
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_model, verify_model_proof


def main():
    # 1. Define a small model with the graph builder (or load one through
    #    repro.model.transpile from the tflite-like flat format).
    gb = GraphBuilder("quickstart", materialize=True)
    x = gb.input("features", (1, 8))
    h = gb.fully_connected(x, 8, 6)
    h = gb.activation(h, "relu")
    h = gb.fully_connected(h, 6, 3)
    out = gb.softmax(h)
    spec = gb.build([out])
    print(spec.summary())

    # 2. Prove one inference.  The prover commits to the (private) weights
    #    and input, and the model outputs become public values.
    features = np.random.default_rng(7).uniform(-1, 1, (1, 8))
    result = prove_model(spec, {"features": features}, scheme_name="kzg",
                         num_cols=10, scale_bits=6)
    print("\nproved in %.2fs on a %d-column x 2^%d grid"
          % (result.proving_seconds, result.num_cols, result.k))
    print("class probabilities (fixed-point):",
          [int(v) for v in result.outputs[out].reshape(-1)])

    # 3. Anyone can verify with the verifying key and public values
    #    (verification is strict: a rejection raises, nothing returns False).
    verify_model_proof(result.vk, result.proof, result.instance, "kzg")
    print("verification: OK")

    # 4. A tampered public output is rejected.
    forged = [list(col) for col in result.instance]
    forged[0][0] += 1
    try:
        verify_model_proof(result.vk, result.proof, forged, "kzg")
    except VerificationFailure:
        print("tampered output rejected")
    else:
        raise AssertionError("tampered output was accepted")


if __name__ == "__main__":
    main()
