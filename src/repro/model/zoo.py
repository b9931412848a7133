"""Model zoo: the eight models of the paper's evaluation (Table 5).

Each model comes in two scales:

- ``paper`` — the full architecture, *shape-only* parameters (no weight
  arrays are allocated).  Used by the optimizer and the analytic cost
  model, which only need the graph.
- ``mini``  — a faithfully shaped but heavily scaled-down variant with
  materialized deterministic weights, small enough to actually prove
  with this prover.

:func:`seeded_paper_model` is the paper architecture with materialized
deterministic weights: what a paper-scale rung synthesizes.

The paper's reported parameter/flop counts are kept in
:data:`PAPER_TABLE5` so benchmarks can print paper-vs-ours side by side.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.model.builder import GraphBuilder
from repro.model.spec import ModelSpec
from repro.resilience.errors import SpecError, UnknownNameError

#: Paper Table 5 (params, flops).
PAPER_TABLE5 = {
    "gpt2": (81_300_000, 188_900_000),
    "diffusion": (19_500_000, 22_900_000_000),
    "twitter": (48_100_000, 96_200_000),
    "dlrm": (764_300, 1_900_000),
    "mobilenet": (3_500_000, 601_800_000),
    "resnet18": (280_900, 81_900_000),
    "vgg16": (15_200_000, 627_900_000),
    "mnist": (8_100, 444_900),
}


def _graph(name: str, mini: bool, seeded: bool) -> GraphBuilder:
    """The graph builder of one zoo model: ``<name>-mini`` with weights,
    or the paper architecture, shape-only unless ``seeded``."""
    return GraphBuilder(name + "-mini" if mini else name,
                        materialize=mini or seeded)


def _mlp(gb: GraphBuilder, x: str, dims: List[int], activation="relu",
         final_activation=None, prefix="mlp") -> str:
    for i in range(len(dims) - 1):
        x = gb.fully_connected(x, dims[i], dims[i + 1],
                               name="%s_fc%d" % (prefix, i))
        last = i == len(dims) - 2
        act = final_activation if last else activation
        if act:
            x = gb.activation(x, act, name="%s_act%d" % (prefix, i))
    return x


# --------------------------------------------------------------------------- MNIST


def mnist(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """The accuracy-optimized minimal MNIST CNN [1] (~8.1K params)."""
    gb = _graph("mnist", mini, seeded)
    if mini:
        x = gb.input("image", (6, 6, 1))
        x = gb.conv2d(x, 1, 4, kernel=(3, 3), stride=2, padding="valid")
        x = gb.activation(x, "relu")
        x = gb.flatten(x)
        x = gb.fully_connected(x, 16, 10)
        x = gb.softmax(x)
        return gb.build([x])
    x = gb.input("image", (28, 28, 1))
    x = gb.conv2d(x, 1, 4, kernel=(3, 3), padding="same")
    x = gb.activation(x, "relu")
    x = gb.max_pool(x, 2)
    x = gb.conv2d(x, 4, 8, kernel=(3, 3), padding="same")
    x = gb.activation(x, "relu")
    x = gb.max_pool(x, 2)
    x = gb.conv2d(x, 8, 16, kernel=(3, 3), padding="same")
    x = gb.activation(x, "relu")
    x = gb.max_pool(x, 2)
    x = gb.conv2d(x, 16, 24, kernel=(3, 3), padding="same")
    x = gb.activation(x, "relu")
    x = gb.global_avg_pool(x)
    x = gb.fully_connected(x, 24, 64)
    x = gb.activation(x, "relu")
    x = gb.fully_connected(x, 64, 10)
    x = gb.softmax(x)
    return gb.build([x])


# ------------------------------------------------------------------------- ResNet-18


def _basic_block(gb: GraphBuilder, x: str, cin: int, cout: int, stride: int,
                 prefix: str) -> str:
    y = gb.conv2d(x, cin, cout, kernel=(3, 3), stride=stride,
                  name=prefix + "_conv1")
    y = gb.batch_norm(y, cout, name=prefix + "_bn1")
    y = gb.activation(y, "relu", name=prefix + "_relu1")
    y = gb.conv2d(y, cout, cout, kernel=(3, 3), name=prefix + "_conv2")
    y = gb.batch_norm(y, cout, name=prefix + "_bn2")
    if stride != 1 or cin != cout:
        x = gb.conv2d(x, cin, cout, kernel=(1, 1), stride=stride,
                      name=prefix + "_down")
        x = gb.batch_norm(x, cout, name=prefix + "_bn_down")
    y = gb.add(x, y, name=prefix + "_add")
    return gb.activation(y, "relu", name=prefix + "_relu2")


def resnet18(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """ResNet-18 on CIFAR-10 (~281K params at paper scale)."""
    gb = _graph("resnet18", mini, seeded)
    if mini:
        x = gb.input("image", (6, 6, 2))
        x = gb.conv2d(x, 2, 4, kernel=(3, 3))
        x = gb.activation(x, "relu")
        x = _basic_block(gb, x, 4, 4, 1, "block1")
        x = gb.global_avg_pool(x)
        x = gb.fully_connected(x, 4, 10)
        return gb.build([x])
    x = gb.input("image", (32, 32, 3))
    x = gb.conv2d(x, 3, 16, kernel=(3, 3))
    x = gb.batch_norm(x, 16)
    x = gb.activation(x, "relu")
    widths = [(16, 16, 1), (16, 16, 1), (16, 32, 2), (32, 32, 1),
              (32, 32, 1), (32, 64, 2), (64, 64, 1), (64, 64, 1)]
    for i, (cin, cout, stride) in enumerate(widths):
        x = _basic_block(gb, x, cin, cout, stride, "block%d" % i)
    x = gb.global_avg_pool(x)
    x = gb.fully_connected(x, 64, 10)
    x = gb.softmax(x)
    return gb.build([x])


# --------------------------------------------------------------------------- VGG-16


def vgg16(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """VGG-16 on CIFAR-10 (~15.2M params at paper scale)."""
    gb = _graph("vgg16", mini, seeded)
    if mini:
        x = gb.input("image", (8, 8, 1))
        x = gb.conv2d(x, 1, 4, kernel=(3, 3))
        x = gb.activation(x, "relu")
        x = gb.max_pool(x, 2)
        x = gb.conv2d(x, 4, 8, kernel=(3, 3))
        x = gb.activation(x, "relu")
        x = gb.max_pool(x, 2)
        x = gb.flatten(x)
        x = gb.fully_connected(x, 2 * 2 * 8, 10)
        return gb.build([x])
    x = gb.input("image", (32, 32, 3))
    cfg = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
           512, 512, 512, "M", 512, 512, 512, "M"]
    cin = 3
    for i, c in enumerate(cfg):
        if c == "M":
            x = gb.max_pool(x, 2, name="pool%d" % i)
        else:
            x = gb.conv2d(x, cin, c, kernel=(3, 3), name="conv%d" % i)
            x = gb.batch_norm(x, c, name="bn%d" % i)
            x = gb.activation(x, "relu", name="relu%d" % i)
            cin = c
    x = gb.flatten(x)
    x = gb.fully_connected(x, 512, 512)
    x = gb.activation(x, "relu")
    x = gb.fully_connected(x, 512, 10)
    x = gb.softmax(x)
    return gb.build([x])


# ------------------------------------------------------------------------ MobileNetV2


def _inverted_residual(gb: GraphBuilder, x: str, cin: int, cout: int,
                       stride: int, expand: int, prefix: str) -> str:
    mid = cin * expand
    y = x
    if expand != 1:
        y = gb.conv2d(y, cin, mid, kernel=(1, 1), name=prefix + "_expand")
        y = gb.batch_norm(y, mid, name=prefix + "_bn0")
        y = gb.activation(y, "relu6", name=prefix + "_relu0")
    y = gb.depthwise_conv2d(y, mid, kernel=(3, 3), stride=stride,
                            name=prefix + "_dw")
    y = gb.batch_norm(y, mid, name=prefix + "_bn1")
    y = gb.activation(y, "relu6", name=prefix + "_relu1")
    y = gb.conv2d(y, mid, cout, kernel=(1, 1), name=prefix + "_project")
    y = gb.batch_norm(y, cout, name=prefix + "_bn2")
    if stride == 1 and cin == cout:
        y = gb.add(x, y, name=prefix + "_add")
    return y


def mobilenet(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """MobileNetV2 '1.0 224' on ImageNet (~3.5M params at paper scale)."""
    gb = _graph("mobilenet", mini, seeded)
    if mini:
        x = gb.input("image", (6, 6, 2))
        x = _inverted_residual(gb, x, 2, 2, 1, 2, "block0")
        x = gb.global_avg_pool(x)
        x = gb.fully_connected(x, 2, 4)
        return gb.build([x])
    x = gb.input("image", (224, 224, 3))
    x = gb.conv2d(x, 3, 32, kernel=(3, 3), stride=2)
    x = gb.batch_norm(x, 32)
    x = gb.activation(x, "relu6")
    settings = [(1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
                (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)]
    cin = 32
    idx = 0
    for t, c, n, s in settings:
        for i in range(n):
            x = _inverted_residual(gb, x, cin, c, s if i == 0 else 1, t,
                                   "ir%d" % idx)
            cin = c
            idx += 1
    x = gb.conv2d(x, cin, 1280, kernel=(1, 1))
    x = gb.batch_norm(x, 1280)
    x = gb.activation(x, "relu6")
    x = gb.global_avg_pool(x)
    x = gb.fully_connected(x, 1280, 1000)
    x = gb.softmax(x)
    return gb.build([x])


# ----------------------------------------------------------------------------- DLRM


def dlrm(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """Facebook's deep recommender (MLPerf DLRM, ~764K params)."""
    gb = _graph("dlrm", mini, seeded)
    if mini:
        tables, dim, rows, dense_dim = 2, 4, 8, 4
        bottom, top = [dense_dim, 4, dim], [dim + (tables + 1) ** 2, 4, 1]
    else:
        tables, dim, rows, dense_dim = 26, 32, 280, 13
        bottom = [dense_dim, 512, 256, dim]
        top = [dim + (tables + 1) ** 2, 384, 192, 1]
    dense = gb.input("dense", (1, dense_dim))
    x = _mlp(gb, dense, bottom, prefix="bottom")
    embeddings = [
        gb.gather([i % rows], (rows, dim), name="emb%d" % i)
        for i in range(tables)
    ]
    stacked = gb.concat([x] + embeddings, axis=0, name="features")  # (T+1, dim)
    inter = gb.batch_matmul(stacked, gb.transpose(stacked, (1, 0)),
                            name="interactions")
    flat = gb.flatten(inter)
    dense_flat = gb.flatten(x)
    top_in = gb.concat([dense_flat, flat], axis=0)
    top_in = gb.reshape(top_in, (1, dim + (tables + 1) ** 2))
    out = _mlp(gb, top_in, top, final_activation="sigmoid", prefix="top")
    return gb.build([out])


# --------------------------------------------------------------------------- Twitter


def twitter(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """MaskNet from Twitter's recommendation stack (~48.1M params)."""
    gb = _graph("twitter", mini, seeded)
    if mini:
        tables, dim, rows, blocks, agg, hidden = 2, 4, 8, 1, 4, 8
    else:
        tables, dim, rows, blocks, agg, hidden = 20, 128, 9500, 3, 256, 512
    feat_dim = tables * dim
    embeddings = [
        gb.gather([i % rows], (rows, dim), name="emb%d" % i)
        for i in range(tables)
    ]
    feats = gb.concat(embeddings, axis=1, name="features")  # (1, feat_dim)
    x = feats
    for b in range(blocks):
        # instance-guided mask: feat -> agg -> feat, sigmoid-gated
        m = gb.fully_connected(feats, feat_dim, agg, name="mask%d_fc1" % b)
        m = gb.activation(m, "relu", name="mask%d_relu" % b)
        m = gb.fully_connected(m, agg, feat_dim, name="mask%d_fc2" % b)
        m = gb.activation(m, "sigmoid", name="mask%d_gate" % b)
        gated = gb.mul(x, m, name="mask%d_mul" % b)
        x = gb.fully_connected(gated, feat_dim, feat_dim,
                               name="mask%d_hidden" % b)
        x = gb.layer_norm(x, feat_dim, name="mask%d_ln" % b)
        x = gb.activation(x, "relu", name="mask%d_out" % b)
    x = gb.fully_connected(x, feat_dim, hidden, name="head_fc1")
    x = gb.activation(x, "relu", name="head_relu")
    x = gb.fully_connected(x, hidden, 1, name="head_fc2")
    x = gb.activation(x, "sigmoid", name="score")
    return gb.build([x])


# ----------------------------------------------------------------------------- GPT-2


def _transformer_block(gb: GraphBuilder, x: str, seq: int, dim: int,
                       heads: int, mlp_dim: int, prefix: str) -> str:
    h = gb.layer_norm(x, dim, name=prefix + "_ln1")
    attn = gb.attention_block(h, seq, dim, heads, name=prefix + "_attn")
    x = gb.add(x, attn, name=prefix + "_res1")
    h = gb.layer_norm(x, dim, name=prefix + "_ln2")
    h = gb.fully_connected(h, dim, mlp_dim, name=prefix + "_mlp1")
    h = gb.activation(h, "gelu", name=prefix + "_gelu")
    h = gb.fully_connected(h, mlp_dim, dim, name=prefix + "_mlp2")
    return gb.add(x, h, name=prefix + "_res2")


def gpt2(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """Distilled GPT-2 (DistilGPT2: 6 layers, d=768, ~81.3M params).

    The LM head is weight-tied to the token embedding, so it adds no
    parameters; outputs are the final hidden states.
    """
    gb = _graph("gpt2", mini, seeded)
    if mini:
        vocab, seq, dim, heads, layers, mlp_dim = 16, 3, 8, 2, 1, 16
    else:
        vocab, seq, dim, heads, layers, mlp_dim = 50257, 2, 768, 12, 6, 3072
    tokens = gb.gather([i % vocab for i in range(seq)], (vocab, dim),
                       name="wte")
    pos = gb.gather(list(range(seq)), (seq, dim), name="wpe")
    x = gb.add(tokens, pos, name="embed")
    for layer in range(layers):
        x = _transformer_block(gb, x, seq, dim, heads, mlp_dim,
                               "block%d" % layer)
    x = gb.layer_norm(x, dim, name="ln_f")
    return gb.build([x])


# -------------------------------------------------------------------------- Diffusion


def _res_block(gb: GraphBuilder, x: str, cin: int, cout: int,
               prefix: str) -> str:
    y = gb.conv2d(x, cin, cout, kernel=(3, 3), name=prefix + "_conv1")
    y = gb.batch_norm(y, cout, name=prefix + "_bn1")
    y = gb.activation(y, "silu", name=prefix + "_act1")
    y = gb.conv2d(y, cout, cout, kernel=(3, 3), name=prefix + "_conv2")
    y = gb.batch_norm(y, cout, name=prefix + "_bn2")
    if cin != cout:
        x = gb.conv2d(x, cin, cout, kernel=(1, 1), name=prefix + "_skip")
    y = gb.add(x, y, name=prefix + "_add")
    return gb.activation(y, "silu", name=prefix + "_act2")


def diffusion(mini: bool = False, seeded: bool = False) -> ModelSpec:
    """A small latent text-to-image diffusion UNet (~19.5M params)."""
    gb = _graph("diffusion", mini, seeded)
    if mini:
        x = gb.input("latent", (4, 4, 2))
        x = _res_block(gb, x, 2, 4, "down0")
        x = _res_block(gb, x, 4, 2, "up0")
        return gb.build([x])
    x = gb.input("latent", (32, 32, 4))
    widths = [160, 256, 320]
    blocks = [4, 3, 2]
    x = gb.conv2d(x, 4, widths[0], kernel=(3, 3), name="stem")
    skips = []
    cin = widths[0]
    for d, w in enumerate(widths):
        for b in range(blocks[d]):
            x = _res_block(gb, x, cin if b == 0 else w, w,
                           "down%d_%d" % (d, b))
        skips.append((x, w))
        if d < len(widths) - 1:
            x = gb.avg_pool(x, 2, name="down%d_pool" % d)
        cin = w
    x = _res_block(gb, x, cin, cin, "middle")
    for d in reversed(range(len(widths))):
        skip, w = skips[d]
        if d < len(widths) - 1:
            # upsample by reference duplication is a shape op; approximate
            # with a 1x1 conv + concat of the skip at the stored resolution
            x = gb.conv2d(x, cin, w, kernel=(1, 1), name="up%d_proj" % d)
            x = gb.pad(x, pad_width=_up_pad(d, widths), name="up%d_pad" % d)
        x = gb.concat([x, skip], axis=2, name="up%d_cat" % d)
        x = _res_block(gb, x, 2 * w, w, "up%d_res" % d)
        cin = w
    x = gb.conv2d(x, cin, 4, kernel=(3, 3), name="out")
    return gb.build([x])


def _up_pad(d: int, widths) -> tuple:
    # pad the pooled map back to the skip's spatial size
    size = 32 >> d
    pooled = 32 >> (d + 1)
    pad = size - pooled
    return ((0, pad), (0, pad), (0, 0))


# --------------------------------------------------------------------------- registry

MODEL_BUILDERS = {
    "mnist": mnist,
    "resnet18": resnet18,
    "vgg16": vgg16,
    "mobilenet": mobilenet,
    "dlrm": dlrm,
    "twitter": twitter,
    "gpt2": gpt2,
    "diffusion": diffusion,
}


def _builder(name: str):
    try:
        return MODEL_BUILDERS[name]
    except KeyError:
        raise UnknownNameError(
            "unknown model %r; available: %s" % (name, sorted(MODEL_BUILDERS)),
            model=name,
        ) from None


def get_model(name: str, scale: str = "paper") -> ModelSpec:
    """Fetch a zoo model at 'paper' (shape-only) or 'mini' (runnable) scale."""
    build = _builder(name)
    if scale not in ("paper", "mini"):
        raise SpecError("scale must be 'paper' or 'mini'", scale=scale)
    return build(mini=scale == "mini")


def seeded_paper_model(name: str) -> ModelSpec:
    """A zoo model's paper architecture with deterministic seeded weights
    (``GraphBuilder(materialize=True)``): a paper-scale spec that
    synthesizes and proves, where ``get_model(name)`` is shape-only."""
    return _builder(name)(seeded=True)


def model_names() -> List[str]:
    return sorted(MODEL_BUILDERS)


def seeded_inputs(spec: ModelSpec, seed=0) -> Dict[str, np.ndarray]:
    """One uniform(-0.5, 0.5) input set for ``spec``, drawn from ``seed``.

    The statement every seeded surface proves (``zkml prove --seed``, a
    socket request's ``"seed"``, the calibration probe): routing them all
    through here is what makes equal seeds mean bit-identical inputs.
    ``seed`` is anything :func:`numpy.random.default_rng` accepts; passing
    a ``Generator`` draws the next input set from it.
    """
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-0.5, 0.5, shape)
            for name, shape in spec.inputs.items()}
