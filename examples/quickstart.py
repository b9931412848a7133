"""Quickstart: define a model, prove one inference, publish the verifying
key, and verify the proof envelope against the published key.

Run:  python examples/quickstart.py
"""

import dataclasses
import tempfile

import numpy as np

from repro.envelope import decode_envelope, verify_envelope
from repro.model import GraphBuilder
from repro.registry import VKRegistry
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_model


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

    # steps 3-5: publish the key, ship the envelope, verify it
    with tempfile.TemporaryDirectory() as root:
        publish_and_verify(result, VKRegistry(root))


def publish_and_verify(result, registry):
    # 3. The provider publishes the verifying key once and ships each
    #    proof as an envelope (the bytes `zkml prove --envelope` writes).
    env = result.envelope()
    registry.publish(result.vk, env.model, env.config_digest)
    data = env.encode()
    print("envelope: %d bytes, vk %s..." % (len(data), env.vk_hash_hex[:16]))

    # 4. Anyone checks the envelope against the published key (strict: a
    #    rejection raises, nothing returns False).
    received = decode_envelope(data)
    vk, entry = registry.resolve(received.vk_hash_hex)
    entry.bind(received)  # the model and config it was published under
    verify_envelope(received, vk)
    print("verification: OK")

    # 5. A tampered public output is rejected.
    forged = [list(col) for col in received.instance]
    forged[0][0] += 1
    try:
        verify_envelope(dataclasses.replace(received, instance=forged), vk)
    except VerificationFailure:
        print("tampered output rejected")
    else:
        raise AssertionError("tampered output was accepted")


if __name__ == "__main__":
    main()
