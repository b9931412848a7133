"""Logical layout generation (paper §7.2).

A logical layout fixes how each layer is implemented, without the
physical grid size.  Exhaustive per-layer enumeration is exponential in
network depth, so ZKML prunes by enforcing one implementation per layer
family per configuration ("adding a constraint is more expensive than
adding a column, and the gains from mixed implementations are rarely
worth it").  The non-pruned mode additionally evaluates every
single-layer deviation from the default uniform layout — mixed plans the
cost model almost always rejects because they pay for the union of both
implementations' constraint sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.layers.base import LayoutChoices
from repro.model.spec import ModelSpec

#: Families whose implementation a logical layout chooses.
LINEAR_KINDS = {"fully_connected", "conv2d", "depthwise_conv2d",
                "batch_matmul"}
ARITH_KINDS = {"add", "sub", "mul", "square", "squared_difference"}


@dataclass(frozen=True)
class LayoutPlan:
    """A logical layout: a uniform base plus optional per-layer overrides.

    Pruned plans have no overrides; the non-pruned search also explores
    plans where a single layer deviates from the uniform choice.
    """

    base: LayoutChoices
    overrides: Tuple[Tuple[str, LayoutChoices], ...] = ()

    @classmethod
    def coerce(cls, plan) -> "LayoutPlan":
        """A plan from what callers pass: ``None`` (the default choices),
        bare :class:`LayoutChoices` (a uniform plan), or a plan."""
        if plan is None:
            return cls(LayoutChoices())
        if isinstance(plan, LayoutChoices):
            return cls(plan)
        return plan

    def for_layer(self, layer_name: str) -> LayoutChoices:
        for name, choices in self.overrides:
            if name == layer_name:
                return choices
        return self.base

    @property
    def is_uniform(self) -> bool:
        return not self.overrides

    def __str__(self) -> str:
        tag = "" if self.is_uniform else " (+%d overrides)" % len(self.overrides)
        return "linear=%s relu=%s arith=%s%s" % (
            self.base.linear, self.base.relu, self.base.arithmetic, tag)


def family_of(kind: str) -> str:
    if kind in LINEAR_KINDS:
        return "linear"
    if kind == "relu":
        return "relu"
    if kind in ARITH_KINDS:
        return "arithmetic"
    return "other"


def model_families(spec: ModelSpec) -> Dict[str, int]:
    """How many layers of each choice-bearing family the model has."""
    counts = {"linear": 0, "relu": 0, "arithmetic": 0}
    for layer in spec.layers:
        fam = family_of(layer.kind)
        if fam in counts:
            counts[fam] += 1
    return counts


def _family_options(spec: ModelSpec, include_freivalds: bool = True):
    families = model_families(spec)
    linear_opts = LayoutChoices.LINEAR_OPTIONS if families["linear"] else ("dot_bias",)
    if not include_freivalds:
        linear_opts = tuple(o for o in linear_opts if o != "freivalds")
    return (
        linear_opts,
        LayoutChoices.RELU_OPTIONS if families["relu"] else ("lookup",),
        (LayoutChoices.ARITHMETIC_OPTIONS if families["arithmetic"]
         else ("custom",)),
    )


def generate_logical_layouts(
    spec: ModelSpec,
    prune: bool = True,
    restrict_gadgets: bool = False,
    include_freivalds: bool = True,
) -> List[LayoutPlan]:
    """Candidate logical layouts for a model.

    ``restrict_gadgets=True`` models the Table 11 ablation: every layer is
    pinned to its single baseline implementation, no alternatives.
    ``include_freivalds=False`` drops the randomized-matmul option, which
    mirrors the configurations the paper reports (its GPT-2 plan of 13
    columns x 2^25 rows is the plain dot-product layout).
    """
    if restrict_gadgets:
        # the single fixed implementation mirrors prior work's choices:
        # Sum-combined dot products, bit-decomposed ReLU (how ZEN/zkCNN
        # express it), and dot-product-based arithmetic
        return [LayoutPlan(LayoutChoices(linear="dot_sum", relu="bitdecomp",
                                         arithmetic="dotprod"))]
    linear_opts, relu_opts, arith_opts = _family_options(spec, include_freivalds)
    uniform = [
        LayoutPlan(LayoutChoices(linear=lin, relu=relu, arithmetic=ar))
        for lin, relu, ar in itertools.product(linear_opts, relu_opts,
                                               arith_opts)
    ]
    if prune:
        return uniform

    plans = list(uniform)
    default = uniform[0].base
    option_map = {
        "linear": linear_opts, "relu": relu_opts, "arithmetic": arith_opts
    }
    for layer in spec.layers:
        fam = family_of(layer.kind)
        if fam == "other":
            continue
        current = getattr(default, fam)
        for option in option_map[fam]:
            if option == current:
                continue
            plans.append(
                LayoutPlan(default,
                           overrides=((layer.name,
                                       default.replace(**{fam: option})),))
            )
    return plans
