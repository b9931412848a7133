"""End-to-end runtime: prove/verify pipeline, estimates, prior-work baselines."""

from repro.runtime.pipeline import (
    ProveResult,
    prove_batch,
    prove_model,
)
from repro.runtime.estimate import estimate_model, EndToEndEstimate
from repro.runtime.audit import (
    AuditEntry,
    AuditFinding,
    AuditLog,
    audit,
)
from repro.runtime.baselines import (
    BaselineEstimate,
    supports_cnn_only,
    vcnn_estimate,
    zkcnn_estimate,
)

__all__ = [
    "AuditLog",
    "AuditEntry",
    "AuditFinding",
    "audit",
    "prove_model",
    "prove_batch",
    "ProveResult",
    "estimate_model",
    "EndToEndEstimate",
    "zkcnn_estimate",
    "vcnn_estimate",
    "supports_cnn_only",
    "BaselineEstimate",
]
