"""Trustless audit of a recommendation feed (the paper's Figure 1/2).

The provider commits to a MaskNet-style ranking model; for a user's
candidate tweets it publishes the scores *and a ZK-SNARK per score* that
each came from the committed model on the tweet's features.  An auditor
verifies the proofs and checks the feed order matches the proven scores —
without ever seeing the model weights.

Run:  python examples/twitter_audit.py
"""

import dataclasses

import numpy as np

from repro.envelope import verify_envelope
from repro.model import GraphBuilder
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_model


def build_ranking_model():
    """A miniature MaskNet: instance-guided mask over tweet features."""
    gb = GraphBuilder("masknet-ranker", materialize=True, seed=3)
    feats = gb.input("features", (1, 8))
    m = gb.fully_connected(feats, 8, 4, name="mask_fc1")
    m = gb.activation(m, "relu", name="mask_relu")
    m = gb.fully_connected(m, 4, 8, name="mask_fc2")
    m = gb.activation(m, "sigmoid", name="mask_gate")
    gated = gb.mul(feats, m, name="mask_mul")
    h = gb.fully_connected(gated, 8, 6, name="hidden")
    h = gb.activation(h, "relu", name="hidden_relu")
    score = gb.fully_connected(h, 6, 1, name="head")
    score = gb.activation(score, "sigmoid", name="score")
    return gb.build([score])


def main():
    model = build_ranking_model()
    print("ranking model: %d params (weights stay private)"
          % model.param_count())

    rng = np.random.default_rng(11)
    candidate_tweets = ["cat photo", "breaking news", "crypto spam"]
    features = {t: rng.uniform(-1, 1, (1, 8)) for t in candidate_tweets}

    # The provider scores each tweet and proves each inference.
    scores, proofs = {}, {}
    for tweet in candidate_tweets:
        result = prove_model(model, {"features": features[tweet]},
                             scheme_name="kzg", num_cols=10, scale_bits=6)
        scores[tweet] = int(result.outputs[model.outputs[0]].reshape(-1)[0])
        proofs[tweet] = result
        print("scored %-14r -> %4d (proved in %.2fs)"
              % (tweet, scores[tweet], result.proving_seconds))

    feed = sorted(candidate_tweets, key=scores.get, reverse=True)
    print("published feed:", feed)

    # The auditor verifies every proof and recomputes the ordering from
    # the public scores.
    for tweet in candidate_tweets:
        result = proofs[tweet]
        assert verify_envelope(result.envelope(), result.vk), tweet
    audited = sorted(candidate_tweets, key=scores.get, reverse=True)
    assert audited == feed
    print("audit passed: feed order matches the proven scores")

    # Every proof must come from the same committed model: the verifying
    # key digest doubles as the model commitment.
    digests = {proofs[t].vk.digest() for t in candidate_tweets}
    assert len(digests) == 1
    print("model commitment consistent across proofs: %s..."
          % digests.pop().hex()[:16])

    # A dishonest provider that inflates a score is caught.
    victim = proofs[feed[-1]]
    forged = [list(col) for col in victim.instance]
    forged[0][0] = (forged[0][0] + 50) % victim.vk.field.p
    try:
        verify_envelope(dataclasses.replace(victim.envelope(),
                                            instance=forged), victim.vk)
    except VerificationFailure:
        print("forged score rejected by the auditor")
    else:
        raise AssertionError("forged score was accepted")


if __name__ == "__main__":
    main()
