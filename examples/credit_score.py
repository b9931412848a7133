"""Trustless credit scoring (paper §2).

A borrower's on-chain history is summarized into features; a committed
scoring model produces a credit score, and a ZK-SNARK convinces the
lender the score was computed honestly — the lender never sees the
model, the borrower never reveals more than the score.

Run:  python examples/credit_score.py
"""

import dataclasses

import numpy as np

from repro.envelope import verify_envelope
from repro.ml import MLPClassifier
from repro.model import run_float
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_model


def train_scoring_model(rng):
    """Train a small creditworthiness classifier on synthetic histories.

    Features: [balance, tx volume, age of account, liquidations, ...];
    label 1 = repaid, 0 = defaulted in our synthetic world.
    """
    n = 400
    x = rng.uniform(-1, 1, (n, 6))
    # repayment correlates with balance + account age - liquidations
    logit = 2.0 * x[:, 0] + 1.5 * x[:, 2] - 2.5 * x[:, 3] + rng.normal(0, .3, n)
    y = (logit > 0).astype(int)
    clf = MLPClassifier([6, 8, 2], seed=1).fit(x, y, epochs=40)
    print("scoring model trained: accuracy %.1f%% on the training pool"
          % (clf.accuracy(x, y) * 100))
    return clf


def main():
    rng = np.random.default_rng(13)
    clf = train_scoring_model(rng)
    model = clf.to_model_spec("credit-score", (6,), softmax=True)

    borrower_history = rng.uniform(-1, 1, (6,))
    # trained logits can reach +-8, so widen the lookup tables to cover
    # the softmax input range at this scale factor
    result = prove_model(model, {"image": borrower_history},
                         scheme_name="kzg", num_cols=10, scale_bits=5,
                         lookup_bits=10)
    probs = result.outputs[model.outputs[0]].reshape(-1)
    score = int(probs[1])  # fixed-point P(repay)
    print("credit score (fixed-point P(repay) at SF=32): %d" % score)
    print("proved in %.2fs; proof is %d modeled bytes"
          % (result.proving_seconds, result.modeled_proof_bytes))

    # the lender verifies
    env = result.envelope()
    assert verify_envelope(env, result.vk)
    print("lender verified the score against the committed model")

    # and a borrower who edits their score is caught
    forged = [list(col) for col in result.instance]
    forged[0][1] = (forged[0][1] + 30) % result.vk.field.p
    try:
        verify_envelope(dataclasses.replace(env, instance=forged),
                        result.vk)
    except VerificationFailure:
        print("inflated score rejected")
    else:
        raise AssertionError("inflated score was accepted")


if __name__ == "__main__":
    main()
