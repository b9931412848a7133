"""Trustless audit of a recommendation feed (the paper's Figure 1/2).

The provider commits to a MaskNet-style ranking model by publishing its
verifying key; the key's hash is the model commitment.  For a user's
candidate tweets it publishes a ZK-SNARK per score, each showing the
score came from the committed model on the tweet's features.  An auditor
resolves the key by the published hash, verifies every proof, and checks
that the feed order matches the proven scores — without ever seeing the
model weights.

Run:  python examples/twitter_audit.py
"""

import dataclasses
import tempfile

import numpy as np

from repro.envelope import decode_envelope
from repro.model import GraphBuilder
from repro.registry import VKRegistry
from repro.runtime import AuditLog, audit


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


def proven_score(envelope: bytes) -> int:
    """The score a proof's public values carry (sigmoid: non-negative)."""
    return decode_envelope(envelope).instance[0][0]


def main():
    model = build_ranking_model()
    print("ranking model: %d params (weights stay private)"
          % model.param_count())
    with tempfile.TemporaryDirectory() as root:
        rank_and_audit(model, VKRegistry(root))


def rank_and_audit(model, registry):
    rng = np.random.default_rng(11)
    candidate_tweets = ["cat photo", "breaking news", "crypto spam"]

    # The provider scores each tweet and proves each inference into a
    # hash-chained log, which publishes the verifying key.
    log = AuditLog(model, registry, scheme_name="kzg", num_cols=10,
                   scale_bits=6)
    scores = {}
    for tweet in candidate_tweets:
        entry = log.serve({"features": rng.uniform(-1, 1, (1, 8))})
        scores[tweet] = proven_score(entry.envelope)
        print("scored %-14r -> %4d (%d-byte proof envelope)"
              % (tweet, scores[tweet], len(entry.envelope)))
    feed = sorted(candidate_tweets, key=scores.get, reverse=True)
    commitment = decode_envelope(log.entries[0].envelope).vk_hash_hex
    print("published feed:", feed)
    print("published model commitment (vk hash): %s..." % commitment[:16])

    # The auditor verifies every proof against the key it resolves by the
    # published hash, and recomputes the ordering from the proven scores.
    assert audit(log, registry, commitment) == []
    proven = dict(zip(candidate_tweets,
                      (proven_score(e.envelope) for e in log.entries)))
    assert sorted(candidate_tweets, key=proven.get, reverse=True) == feed
    print("audit passed: feed order matches the proven scores")

    # A dishonest provider that inflates a score is caught.
    victim = log.entries[candidate_tweets.index(feed[-1])]
    env = decode_envelope(victim.envelope)
    forged = [list(col) for col in env.instance]
    forged[0][0] += 50
    log.entries[victim.index] = dataclasses.replace(
        victim, envelope=dataclasses.replace(env, instance=forged).encode())
    findings = audit(log, registry, commitment)
    assert [(f.index, f.kind) for f in findings] == [(victim.index, "proof")]
    print("forged score rejected by the auditor:", findings[0])


if __name__ == "__main__":
    main()
