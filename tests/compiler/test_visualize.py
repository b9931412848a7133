"""Tests for the layout visualizer."""

from repro.compiler import build_physical_layout, render_breakdown
from repro.layers.base import LayoutChoices
from repro.model import get_model


def test_breakdown_lists_heaviest_layers_first():
    spec = get_model("mnist", "mini")
    layout = build_physical_layout(spec, LayoutChoices(), 10, scale_bits=5)
    text = render_breakdown(layout)
    assert spec.name in text
    lines = [l for l in text.splitlines()[1:] if "rows" in l]
    counts = [int(l.split("rows")[0].split()[-1].replace(",", ""))
              for l in lines if "(" not in l.split()[0]]
    assert counts == sorted(counts, reverse=True)


def test_breakdown_truncates_long_models():
    spec = get_model("resnet18", "paper")
    layout = build_physical_layout(spec, LayoutChoices(), 16, scale_bits=8)
    text = render_breakdown(layout, top=5)
    assert "more layers" in text
