"""Proof of a training step (paper Table 2's "CNN training" row).

ZKML circuits are not limited to inference: a gradient-descent update is
just more tensor arithmetic.  This example proves one SGD step of a
linear model — forward pass, error, outer-product gradient, and weight
update — so a verifier can check that published weights W' really are
W - lr * dL/dW for the committed batch, without seeing W or the data.

Run:  python examples/training_step.py
"""

import dataclasses

import numpy as np

from repro.envelope import verify_envelope
from repro.model import GraphBuilder, run_float
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_model


def build_sgd_step(d_in=4, d_out=3):
    """One SGD step on squared error: W' = W - lr * x^T (xW - t)."""
    gb = GraphBuilder("sgd-step", materialize=True)
    w = gb.input("weights", (d_in, d_out))
    x = gb.input("x", (1, d_in))
    t = gb.input("target", (1, d_out))
    lr = gb.input("lr", (1, 1))
    y = gb.batch_matmul(x, w, name="forward")
    e = gb.add_layer("sub", [y, t], name="error")
    x_t = gb.transpose(x, name="x_transposed")
    grad = gb.batch_matmul(x_t, e, name="gradient")
    step = gb.mul(grad, lr, name="scaled_gradient")
    w_new = gb.add_layer("sub", [w, step], name="updated_weights")
    return gb.build([w_new])


def main():
    rng = np.random.default_rng(21)
    model = build_sgd_step()
    weights = rng.uniform(-1, 1, (4, 3))
    x = rng.uniform(-1, 1, (1, 4))
    target = rng.uniform(-1, 1, (1, 3))
    lr = np.array([[0.25]])

    inputs = {"weights": weights, "x": x, "target": target, "lr": lr}

    # float reference of the update
    expected = weights - lr * (x.T @ (x @ weights - target))

    result = prove_model(model, inputs, scheme_name="kzg", num_cols=10,
                         scale_bits=7)
    updated = result.outputs[model.outputs[0]].astype(np.float64) / (1 << 7)
    err = np.abs(updated - expected).max()
    print("proved one SGD step in %.2fs (max fixed-point error %.4f)"
          % (result.proving_seconds, err))
    assert err < 0.05

    env = result.envelope()
    assert verify_envelope(env, result.vk)
    print("verifier accepted the updated weights")

    # a dishonest trainer publishing different weights is caught
    forged = [list(col) for col in result.instance]
    forged[0][0] = (forged[0][0] + 5) % result.vk.field.p
    try:
        verify_envelope(dataclasses.replace(env, instance=forged),
                        result.vk)
    except VerificationFailure:
        print("forged weight update rejected")
    else:
        raise AssertionError("forged weight update was accepted")


if __name__ == "__main__":
    main()
