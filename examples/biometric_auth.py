"""Private biometric authentication (paper §2).

A user proves that the embedding of a fresh photo matches their enrolled
face template — close enough under squared distance — without revealing
either embedding.  The public statement is just the match bit; combined
with an attested camera this gives trustless "is a real person" checks.

Run:  python examples/biometric_auth.py
"""

import numpy as np

from repro.envelope import verify_envelope
from repro.model import GraphBuilder
from repro.runtime import prove_model


def build_matcher(dim=6):
    """Embed the photo with a small MLP and compare with the enrolled
    template via SquaredDifference + mean + thresholded sigmoid."""
    gb = GraphBuilder("face-matcher", materialize=True, seed=9)
    photo = gb.input("photo", (1, dim))
    template = gb.input("template", (1, dim))
    emb = gb.fully_connected(photo, dim, dim, name="embed")
    emb = gb.activation(emb, "tanh", name="embed_act")
    diff = gb.add_layer("squared_difference", [emb, template],
                        name="sq_diff")
    dist = gb.add_layer("reduce_mean", [diff], {"axis": 1}, name="distance")
    return gb.build([dist])


def main():
    model = build_matcher()
    rng = np.random.default_rng(4)

    # enrolment: the template is the embedding of the enrolment photo
    from repro.model import run_float

    enroll_photo = rng.uniform(-1, 1, (1, 6))
    template = np.tanh(
        enroll_photo @ np.asarray(model.layers[0].params["weight"])
        + np.asarray(model.layers[0].params["bias"])
    )

    # a genuine login photo (small perturbation) and an imposter
    genuine = enroll_photo + rng.normal(0, 0.02, (1, 6))
    imposter = rng.uniform(-1, 1, (1, 6))

    threshold = 0.05
    for label, photo in (("genuine", genuine), ("imposter", imposter)):
        result = prove_model(
            model, {"photo": photo, "template": template},
            scheme_name="kzg", num_cols=10, scale_bits=7,
        )
        dist_fixed = int(result.outputs[model.outputs[0]].reshape(-1)[0])
        dist = dist_fixed / (1 << 7)
        accepted = dist < threshold
        ok = verify_envelope(result.envelope(), result.vk)
        print("%-9s distance=%.4f -> %s (proof %s, %.2fs)"
              % (label, dist, "ACCEPT" if accepted else "REJECT",
                 "valid" if ok else "INVALID", result.proving_seconds))
        assert ok
        if label == "genuine":
            assert accepted
        else:
            assert not accepted
    print("biometric check complete: embeddings never left the prover")


if __name__ == "__main__":
    main()
