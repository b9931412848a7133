"""Proving a (miniature) GPT-2 forward pass — the paper's headline model.

A full transformer block — token+position embeddings, LayerNorm,
multi-head self-attention with softmaxed scores, the GELU MLP, residual
connections, and a weight-tied logits head — proven end to end with the
real prover, with the next-token logits public.

Run:  python examples/gpt2_inference.py
"""

import dataclasses

import numpy as np

from repro.envelope import verify_envelope
from repro.model import GraphBuilder, run_float
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_model

VOCAB, SEQ, DIM, HEADS, MLP = 12, 3, 8, 2, 16


def build_tiny_gpt(prompt_tokens):
    gb = GraphBuilder("tiny-gpt", materialize=True, seed=42)
    wte_shape = (VOCAB, DIM)
    tokens = gb.gather(prompt_tokens, wte_shape, name="wte")
    pos = gb.gather(list(range(SEQ)), (SEQ, DIM), name="wpe")
    x = gb.add(tokens, pos, name="embed")

    # one transformer block
    h = gb.layer_norm(x, DIM, name="ln1")
    attn = gb.attention_block(h, SEQ, DIM, HEADS, name="attn")
    x = gb.add(x, attn, name="res1")
    h = gb.layer_norm(x, DIM, name="ln2")
    h = gb.fully_connected(h, DIM, MLP, name="mlp1")
    h = gb.activation(h, "gelu", name="gelu")
    h = gb.fully_connected(h, MLP, DIM, name="mlp2")
    x = gb.add(x, h, name="res2")
    x = gb.layer_norm(x, DIM, name="ln_f")

    # weight-tied logits head: reuse the embedding matrix transposed
    wte = gb._layers[0].params["table"]
    logits = gb.add_layer(
        "fully_connected", [x], {"units": VOCAB},
        {"weight": wte.T.copy(), "bias": np.zeros(VOCAB)},
        name="lm_head",
    )
    return gb.build([logits])


def main():
    prompt = [3, 7, 1]  # fixed-length token ids (paper §4.1: NLP inputs
    # are fixed-length; loops/branches unroll)
    model = build_tiny_gpt(prompt)
    print("tiny GPT: %d params, %d layers" % (model.param_count(),
                                              len(model.layers)))

    result = prove_model(model, {}, scheme_name="kzg", num_cols=12,
                         scale_bits=6)
    logits = result.outputs[model.outputs[0]].astype(np.int64)
    next_token = int(np.argmax(logits[-1]))
    print("proved the forward pass in %.2fs on a 2^%d grid"
          % (result.proving_seconds, result.k))
    print("proven next-token prediction: %d" % next_token)

    # the prediction matches the float model
    float_logits = run_float(model, {})[model.outputs[0]]
    assert int(np.argmax(float_logits[-1])) == next_token

    env = result.envelope()
    assert verify_envelope(env, result.vk)
    print("verifier accepted the generation step")

    # changing the published logits is caught
    forged = [list(col) for col in result.instance]
    forged[-1][0] = (forged[-1][0] + 9) % result.vk.field.p
    try:
        verify_envelope(dataclasses.replace(env, instance=forged),
                        result.vk)
    except VerificationFailure:
        print("forged logits rejected")
    else:
        raise AssertionError("forged logits were accepted")


if __name__ == "__main__":
    main()
