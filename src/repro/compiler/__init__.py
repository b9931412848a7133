"""The ZKML compiler: logical layouts, physical layouts, model synthesis."""

from repro.compiler.logical import (
    LayoutPlan,
    generate_logical_layouts,
    model_families,
)
from repro.compiler.physical import (
    MIN_COLUMNS,
    LayoutInfeasible,
    PhysicalLayout,
    build_physical_layout,
)
from repro.compiler.visualize import render_breakdown
from repro.compiler.layouter import (
    SynthesizedModel,
    check_against_reference,
    synthesize_batch,
    synthesize_model,
)

__all__ = [
    "LayoutPlan",
    "generate_logical_layouts",
    "model_families",
    "PhysicalLayout",
    "build_physical_layout",
    "LayoutInfeasible",
    "MIN_COLUMNS",
    "SynthesizedModel",
    "synthesize_model",
    "synthesize_batch",
    "check_against_reference",
    "render_breakdown",
]
