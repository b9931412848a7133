"""Cost-model auto-calibration (the engine behind ``zkml calibrate``).

The static ``R6I_*`` profiles model the paper's AWS boxes running an
optimized C++/Rust prover — on *this* machine running *this* Python
prover their absolute predictions are off by orders of magnitude, which
is fine for the paper's rank-correlation experiments but useless for
"how long will this prove take here?".  Calibration closes the gap:

1. microbenchmark NTT, MSM (commitment), and lookup-helper construction
   at several k (:func:`~repro.optimizer.hardware.benchmark_operations`),
2. fit the §7.4 scaling laws ``t_FFT(k) = c·k·2^k`` and
   ``t_MSM(k) = c·2^k`` through the measured points (geometric-mean fit,
   so every point weighs equally in log space),
3. write a ``zkml-hardware-profile/v1`` JSON the optimizer and cost
   model load in place of the static default (via ``--hardware`` or the
   ``ZKML_HW_PROFILE`` environment variable),
4. prove a small probe model and report **drift** — |ln(predicted /
   actual)| — under the static default vs the calibrated profile, into
   the metrics registry (:func:`~repro.obs.metrics.record_costmodel_drift`).

A calibration is accepted only if it reduces probe drift versus the
static default; the report says so either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional, Sequence, Tuple

from repro.field import GOLDILOCKS, PrimeField
from repro.obs.metrics import MetricsRegistry, record_costmodel_drift
from repro.optimizer.cost_model import estimate_cost
from repro.optimizer.hardware import (
    HardwareProfile,
    benchmark_operations,
    profile_for_model,
    save_profile,
)

__all__ = ["CalibrationResult", "calibrate_hardware", "probe_drift",
           "fit_scaling"]

#: Default microbenchmark sizes (2^8 .. 2^12 keeps calibration < 10 s).
DEFAULT_KS = (8, 9, 10, 11, 12)

#: k range the fitted curves are tabulated over (covers every mini-scale
#: circuit and the extrapolation head-room the interpolator wants).
FILL_K = (6, 22)


def _basis(op: str, k: int) -> float:
    """The §7.4 scaling law each operation is fitted against."""
    if op == "fft":
        return float(k) * (1 << k)
    return float(1 << k)  # msm and lookup are linear in 2^k


def fit_scaling(measured: Dict[int, float], op: str
                ) -> Tuple[float, Dict[int, float]]:
    """Fit ``t(k) = c · basis(k)`` through measured points.

    Returns ``(c, residuals)`` where ``c`` is the geometric mean of the
    per-point ratios (equal weight in log space — a slow size-2^8 outlier
    can't dominate the 2^12 point) and ``residuals[k]`` is
    ``measured / fitted`` per point (1.0 = perfect fit).
    """
    if not measured:
        raise ValueError("cannot fit %s: no measured points" % op)
    ratios = {k: t / _basis(op, k) for k, t in measured.items() if t > 0}
    if not ratios:
        raise ValueError("cannot fit %s: all measurements were zero" % op)
    c = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
    residuals = {k: measured[k] / (c * _basis(op, k)) for k in ratios}
    return c, residuals


def _fill_table(measured: Dict[int, float], c: float, op: str,
                k_range: Tuple[int, int]) -> Dict[int, float]:
    """Tabulate the fitted curve, keeping measured points exact."""
    lo, hi = k_range
    table = {k: c * _basis(op, k) for k in range(lo, hi + 1)}
    table.update(measured)
    return table


@dataclass
class CalibrationResult:
    """A fitted hardware profile plus its provenance."""

    profile: HardwareProfile
    #: op -> fitted constant c in t(k) = c * basis(k).
    constants: Dict[str, float]
    #: op -> {k: measured/fitted} — fit quality per benchmark point.
    residuals: Dict[str, Dict[int, float]]
    #: op -> raw measured seconds per k.
    measured: Dict[str, Dict[int, float]]
    ks: Tuple[int, ...] = ()
    scheme: str = "kzg"
    #: Filled by :func:`probe_drift` when a probe prove was run.
    drift: Dict[str, object] = dataclass_field(default_factory=dict)

    def meta(self) -> Dict:
        """Provenance dict stored in the profile JSON's ``meta`` field."""
        return {
            "calibrated": True,
            "scheme": self.scheme,
            "benchmark_ks": list(self.ks),
            "constants": {op: float("%.6g" % c)
                          for op, c in sorted(self.constants.items())},
            "residuals": {
                op: {str(k): round(r, 4) for k, r in sorted(res.items())}
                for op, res in sorted(self.residuals.items())
            },
            "drift": self.drift,
        }

    def save(self, path: str) -> None:
        save_profile(self.profile, path, meta=self.meta())

    def render(self) -> str:
        lines = ["calibrated profile %r (scheme=%s, ks=%s)"
                 % (self.profile.name, self.scheme, list(self.ks))]
        for op in ("fft", "msm", "lookup"):
            res = self.residuals[op]
            worst = max(res.values(), default=1.0)
            best = min(res.values(), default=1.0)
            lines.append(
                "  t_%-6s c=%.3e s  fit residuals %.2fx..%.2fx"
                % (op, self.constants[op], best, worst))
        lines.append("  t_field %.3e s" % self.profile.t_field)
        if self.drift:
            lines.append(
                "  probe %s: actual %.3fs | static predicts %.3fs "
                "(drift %.2f) | calibrated predicts %.3fs (drift %.2f) -> %s"
                % (self.drift["model"], self.drift["actual_seconds"],
                   self.drift["static_predicted_seconds"],
                   self.drift["static_drift"],
                   self.drift["calibrated_predicted_seconds"],
                   self.drift["calibrated_drift"],
                   "improved" if self.drift["improved"] else
                   "NOT improved"))
        return "\n".join(lines)


def calibrate_hardware(
    field: PrimeField = GOLDILOCKS,
    ks: Sequence[int] = DEFAULT_KS,
    scheme_name: str = "kzg",
    name: str = "local-calibrated",
    cores: int = 1,
    ram_gb: int = 16,
) -> CalibrationResult:
    """Microbenchmark this machine and fit the §7.4 curves through it."""
    bench = benchmark_operations(field, ks=tuple(ks),
                                 scheme_name=scheme_name)
    measured = {"fft": dict(bench.t_fft), "msm": dict(bench.t_msm),
                "lookup": dict(bench.t_lookup)}
    constants: Dict[str, float] = {}
    residuals: Dict[str, Dict[int, float]] = {}
    tables: Dict[str, Dict[int, float]] = {}
    for op in ("fft", "msm", "lookup"):
        c, res = fit_scaling(measured[op], op)
        constants[op] = c
        residuals[op] = res
        tables[op] = _fill_table(measured[op], c, op, FILL_K)
    profile = HardwareProfile(
        name=name,
        cores=cores,
        ram_gb=ram_gb,
        t_fft=tables["fft"],
        t_msm=tables["msm"],
        t_lookup=tables["lookup"],
        t_field=bench.t_field,
    )
    return CalibrationResult(
        profile=profile,
        constants=constants,
        residuals=residuals,
        measured=measured,
        ks=tuple(ks),
        scheme=scheme_name,
    )


def probe_drift(
    calibration: CalibrationResult,
    probe_model: str = "gpt2",
    scheme_name: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Prove a small probe and measure prediction drift both ways.

    Runs one real (mini-scale) prove, prices its *actual* physical layout
    under (a) the static paper default for that model and (b) the
    calibrated profile, and records |ln(predicted/actual)| for each via
    :func:`~repro.obs.metrics.record_costmodel_drift`.  The result dict
    (also stored on ``calibration.drift``) says whether calibration
    improved the prediction — the acceptance gate for writing a profile.
    """
    from repro.model import get_model, seeded_inputs
    from repro.runtime.pipeline import prove_model

    scheme_name = scheme_name or calibration.scheme
    spec = get_model(probe_model, "mini")
    result = prove_model(spec, seeded_inputs(spec, seed),
                         scheme_name=scheme_name, use_pk_cache=False,
                         keep_synthesized=True)
    layout = result.synthesized.layout
    actual = result.proving_seconds

    static_profile = profile_for_model(probe_model)
    static_pred = estimate_cost(layout, static_profile, scheme_name).total
    calib_pred = estimate_cost(layout, calibration.profile,
                               scheme_name).total

    registry = registry if registry is not None else MetricsRegistry()
    static_rep = record_costmodel_drift(
        registry, spec.name, static_profile.name, static_pred, actual)
    calib_rep = record_costmodel_drift(
        registry, spec.name, calibration.profile.name, calib_pred, actual)

    report = {
        "model": spec.name,
        "scheme": scheme_name,
        "k": layout.k,
        "actual_seconds": round(actual, 6),
        "static_profile": static_profile.name,
        "static_predicted_seconds": round(static_pred, 6),
        "static_drift": round(static_rep["drift"], 4),
        "calibrated_predicted_seconds": round(calib_pred, 6),
        "calibrated_drift": round(calib_rep["drift"], 4),
        "improved": calib_rep["drift"] < static_rep["drift"],
    }
    calibration.drift = report
    return report
