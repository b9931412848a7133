"""Tests for the row-exact physical layout simulator."""

import hashlib
import time

import numpy as np
import pytest

from repro.compiler import (
    LayoutInfeasible,
    LayoutPlan,
    build_physical_layout,
    synthesize_model,
)
from repro.halo2.shape import ADVICE_ROUND, ProofShape
from repro.layers.base import LayoutChoices
from repro.model import get_model
from repro.optimizer import optimize_layout
from repro.optimizer.hardware import profile_for_model
from repro.tensor import PLACEHOLDER

rng = np.random.default_rng(17)

MINI_MODELS = ["mnist", "resnet18", "vgg16", "mobilenet", "dlrm", "twitter",
               "gpt2", "diffusion"]


def mini_inputs(spec):
    return {k: rng.uniform(-0.5, 0.5, shape) for k, shape in spec.inputs.items()}


def assert_count_matches_assign(layout, builder):
    """The count walk's layout equals what the assigning walk built."""
    assert layout.gadget_rows == builder.rows_used
    assert layout.per_layer_rows == {r.name: r.end - r.start
                                     for r in builder.regions}
    assert layout.num_lookups == len(builder.cs.lookups)
    assert layout.num_selectors == builder.cs.num_selectors
    assert layout.num_fixed == builder.cs.num_fixed
    assert layout.table_rows == builder.table_rows_needed()
    # the walk declares what the synthesis declared (its outputs not yet
    # exposed: no instance column), so keygen would give both one shape
    assert layout.shape(builder.k, slots=0) == ProofShape.of(builder.cs,
                                                             builder.k)


@pytest.mark.parametrize("name", MINI_MODELS)
@pytest.mark.parametrize("num_cols", [8, 12])
def test_simulator_is_row_exact(name, num_cols):
    """Simulated rows/lookups/selectors equal a real synthesis exactly."""
    spec = get_model(name, "mini")
    layout = build_physical_layout(spec, LayoutChoices(), num_cols,
                                   scale_bits=5)
    result = synthesize_model(spec, mini_inputs(spec), num_cols=num_cols,
                              scale_bits=5)
    assert_count_matches_assign(layout, result.builder)


@pytest.mark.parametrize("choices", [
    LayoutChoices(linear="dot_sum"),
    LayoutChoices(linear="freivalds"),
    LayoutChoices(arithmetic="dotprod"),
    LayoutChoices(relu="bitdecomp"),
], ids=["dot_sum", "freivalds", "arith_dotprod", "relu_bitdecomp"])
def test_simulator_row_exact_across_choices(choices):
    spec = get_model("mnist", "mini")
    layout = build_physical_layout(spec, choices, 14, scale_bits=5)
    result = synthesize_model(spec, mini_inputs(spec), plan=choices,
                              num_cols=14, scale_bits=5)
    assert_count_matches_assign(layout, result.builder)


def test_count_walk_reads_no_value():
    """The count walk never gets to a value check (Freivalds' included):
    the placeholder entry it writes everywhere never takes a value."""
    for name in MINI_MODELS:
        build_physical_layout(get_model(name, "mini"),
                              LayoutChoices(linear="freivalds"), 12,
                              scale_bits=5)
    assert PLACEHOLDER.value is None


def test_zero_slots_is_a_typed_infeasibility():
    """Softmax over many classes needs the 7-cell wide division: at 6
    columns that gadget has no slot, which is LayoutInfeasible (the
    optimizer skips the point), not a bare ValueError."""
    with pytest.raises(LayoutInfeasible, match="var_div_wide"):
        build_physical_layout(get_model("mnist", "paper"), LayoutChoices(), 6,
                              scale_bits=12)


class TestKSelection:
    def test_k_is_minimal_power_of_two(self):
        spec = get_model("mnist", "mini")
        layout = build_physical_layout(spec, LayoutChoices(), 10,
                                       scale_bits=5)
        needed = max(layout.gadget_rows, layout.table_rows)
        assert (1 << layout.k) >= needed
        assert (1 << (layout.k - 1)) < needed or layout.k == layout.lookup_bits + 1

    def test_lookup_bits_bound_k(self):
        spec = get_model("mnist", "mini")
        layout = build_physical_layout(spec, LayoutChoices(), 10,
                                       scale_bits=5, lookup_bits=12)
        assert layout.k >= 13

    def test_more_columns_fewer_rows(self):
        spec = get_model("vgg16", "mini")
        narrow = build_physical_layout(spec, LayoutChoices(), 6, scale_bits=5)
        wide = build_physical_layout(spec, LayoutChoices(), 20, scale_bits=5)
        assert wide.gadget_rows < narrow.gadget_rows

    def test_infeasible_raises(self):
        spec = get_model("gpt2", "paper")
        with pytest.raises(LayoutInfeasible):
            build_physical_layout(spec, LayoutChoices(), 6, scale_bits=5,
                                  max_k=16)

    def test_too_few_columns_rejected(self):
        spec = get_model("mnist", "mini")
        with pytest.raises(ValueError):
            build_physical_layout(spec, LayoutChoices(), 4, scale_bits=5)


class TestPaperScaleLayouts:
    @pytest.mark.parametrize("name", ["mnist", "dlrm", "resnet18"])
    def test_paper_models_costable(self, name):
        spec = get_model(name, "paper")
        layout = build_physical_layout(spec, LayoutChoices(), 20,
                                       scale_bits=12)
        assert layout.gadget_rows > 1000
        assert layout.k <= 28

    def test_gpt2_paper_scale(self):
        spec = get_model("gpt2", "paper")
        layout = build_physical_layout(spec, LayoutChoices(linear="freivalds"),
                                       40, scale_bits=12)
        assert 20 <= layout.k <= 28


#: Algorithm 1's answer per paper-scale spec (kzg, time objective, pruned
#: plans): the best layout's k, num_cols, gadget_rows, table_rows,
#: num_lookups, num_fixed, num_selectors; the number of evaluated
#: candidates; and a blake2b-16 digest over every candidate's shape.
#: ``table_rows`` fell from 32769 to 32768 when the tables lost their zero
#: default row; nothing else moved.
GOLDEN_LAYOUTS = {
    "diffusion": (22, 32, 4149960, 32768, 44, 9, 7, 86,
                  "57c3ebeafa5c4483363c37d3602a460f"),
    "dlrm": (16, 20, 62077, 32768, 16, 16, 4, 222,
             "d87da99d399355b745122fac60764fee"),
    "gpt2": (21, 44, 2077686, 32768, 169, 49, 14, 258,
             "0b1038324e65254178f46679847eb7bf"),
    "mnist": (16, 7, 24502, 32768, 18, 9, 11, 219,
              "d7851bd24dc4d71fa5c8ed892e944711"),
    "mobilenet": (23, 20, 7787813, 32768, 57, 9, 12, 58,
                  "915b027bcf1851397293f72db760dc74"),
    "resnet18": (17, 48, 128758, 32768, 148, 11, 12, 402,
                 "1c4c8febde0cfe8cfe3904276d7dd8cf"),
    "twitter": (21, 27, 2025534, 32768, 59, 31, 11, 444,
                "cf455c8c9d53de1a20131cfb46a39982"),
    "vgg16": (20, 40, 1046502, 32768, 109, 22, 11, 73,
              "958b8ff9447b87592ae6162dfdb2d7e3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LAYOUTS))
def test_optimizer_layouts_are_golden(name):
    """The optimizer's answers on the paper-scale specs are exact known
    values; any change to how the simulator counts moves them."""
    result = optimize_layout(get_model(name, "paper"),
                             profile_for_model(name), scheme_name="kzg",
                             objective="time", prune=True)
    best = result.layout
    digest = hashlib.blake2b(digest_size=16)
    for candidate in result.candidates:
        lay = candidate.layout
        digest.update(repr((repr(lay.plan), lay.num_cols, lay.k,
                            lay.gadget_rows, lay.num_lookups, lay.num_fixed,
                            lay.num_selectors)).encode())
    got = (best.k, best.num_cols, best.gadget_rows, best.table_rows,
           best.num_lookups, best.num_fixed, best.num_selectors,
           len(result.candidates), digest.hexdigest())
    assert got == GOLDEN_LAYOUTS[name]


@pytest.mark.parametrize("name", ["dlrm", "resnet18"])
def test_paper_scale_shape_needs_no_witness(name):
    """The proof shape of the optimizer's own layout of a paper-scale
    spec comes from the count walk alone, in well under a second."""
    layout = optimize_layout(get_model(name, "paper"),
                             profile_for_model(name), scheme_name="kzg",
                             objective="time", prune=True).layout
    start = time.perf_counter()
    shape = layout.shape()
    assert time.perf_counter() - start < 1.0
    assert (shape.k, shape.max_degree, shape.extension) == (layout.k, 3, 2)
    assert shape.round_widths[ADVICE_ROUND] == layout.num_cols
    assert shape.lookups == layout.num_lookups
