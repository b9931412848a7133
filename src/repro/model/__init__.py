"""Model IR: spec, builder, transpiler, reference executors, and the zoo."""

from repro.model.spec import LayerSpec, ModelSpec
from repro.model.builder import GraphBuilder
from repro.model.executor import fixed_outputs_decoded, run_fixed, run_float
from repro.model.transpiler import (
    OPCODE_TO_KIND,
    TranspileError,
    export,
    transpile,
)
from repro.model.zoo import (
    PAPER_TABLE5,
    get_model,
    model_names,
    seeded_inputs,
    seeded_paper_model,
)

__all__ = [
    "LayerSpec",
    "ModelSpec",
    "GraphBuilder",
    "run_float",
    "run_fixed",
    "fixed_outputs_decoded",
    "transpile",
    "export",
    "OPCODE_TO_KIND",
    "TranspileError",
    "get_model",
    "model_names",
    "seeded_inputs",
    "seeded_paper_model",
    "PAPER_TABLE5",
]
