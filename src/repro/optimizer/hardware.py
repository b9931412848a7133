"""Hardware profiles and operation benchmarking (paper §7.4).

The cost model needs, per proving machine: the time of a single FFT of
size 2^k, a single MSM of size 2^k, lookup-table construction of size
2^k, and a single field multiply-add.  ``benchmark_operations`` measures
them *on this machine against this Python prover* (used for the §9.5
rank-correlation experiment, where estimates are compared with real
proving runs); the ``R6I_*`` profiles model the paper's AWS boxes, with
constants calibrated so the headline magnitudes land near Table 6.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS, EvaluationDomain, PrimeField

#: Schema tag for profile JSON files written by ``save_profile`` /
#: ``zkml calibrate``.
PROFILE_SCHEMA = "zkml-hardware-profile/v1"

#: Environment variable naming the default hardware profile: either a
#: built-in profile name or a path to a calibrated profile JSON.
ENV_PROFILE = "ZKML_HW_PROFILE"


@dataclass(frozen=True)
class HardwareProfile:
    """Per-machine operation costs, all in seconds."""

    name: str
    cores: int
    ram_gb: int
    #: k -> seconds for one size-2^k FFT.
    t_fft: Dict[int, float]
    #: k -> seconds for one size-2^k MSM.
    t_msm: Dict[int, float]
    #: k -> seconds to build one size-2^k lookup helper set.
    t_lookup: Dict[int, float]
    #: seconds for one field multiply-add.
    t_field: float

    def fft(self, k: int) -> float:
        return self._interp(self.t_fft, k)

    def msm(self, k: int) -> float:
        return self._interp(self.t_msm, k)

    def lookup(self, k: int) -> float:
        return self._interp(self.t_lookup, k)

    @staticmethod
    def _interp(table: Dict[int, float], k: int) -> float:
        if k in table:
            return table[k]
        below = [kk for kk in table if kk < k]
        above = [kk for kk in table if kk > k]
        if below and above:
            lo, hi = max(below), min(above)
            frac = (k - lo) / (hi - lo)
            return table[lo] * (table[hi] / table[lo]) ** frac
        if below:  # extrapolate doubling-per-k
            lo = max(below)
            return table[lo] * (2.1 ** (k - lo))
        hi = min(above)
        return table[hi] / (2.1 ** (hi - k))

    def memory_bytes(self, k: int, total_columns: int, extension: int) -> int:
        """Rough prover footprint: base + extended evaluations per column."""
        return 32 * (1 << k) * total_columns * (1 + extension)

    def fits_memory(self, k: int, total_columns: int, extension: int) -> bool:
        return self.memory_bytes(k, total_columns, extension) <= (
            self.ram_gb * (1 << 30)
        )


def _aws_profile(name: str, cores: int, ram_gb: int) -> HardwareProfile:
    """A modeled AWS instance.

    Constants are calibrated against the paper's Table 6 magnitudes on a
    32-core baseline (MNIST ~2.5 s, GPT-2 ~1 h) and scaled by core count
    with imperfect parallel efficiency.
    """
    scale = (32.0 / cores) ** 0.8
    c_fft = 2.2e-9 * scale
    c_msm = 2.6e-7 * scale
    c_lookup = 1.2e-7 * scale
    return HardwareProfile(
        name=name,
        cores=cores,
        ram_gb=ram_gb,
        t_fft={k: c_fft * k * (1 << k) for k in range(10, 31)},
        t_msm={k: c_msm * (1 << k) for k in range(10, 29)},
        t_lookup={k: c_lookup * (1 << k) for k in range(10, 29)},
        t_field=2.0e-9 * scale,
    )


#: The paper's proving machines (§9.1).
R6I_8XLARGE = _aws_profile("r6i.8xlarge", cores=32, ram_gb=256)
R6I_16XLARGE = _aws_profile("r6i.16xlarge", cores=64, ram_gb=512)
R6I_32XLARGE = _aws_profile("r6i.32xlarge", cores=128, ram_gb=1024)

PROFILES = {
    p.name: p for p in (R6I_8XLARGE, R6I_16XLARGE, R6I_32XLARGE)
}


def profile_for_model(model_name: str) -> HardwareProfile:
    """The instance the paper used per model (§9.1)."""
    if model_name in ("gpt2", "diffusion"):
        return R6I_32XLARGE
    if model_name == "mobilenet":
        return R6I_16XLARGE
    return R6I_8XLARGE


def save_profile(profile: HardwareProfile, path: str,
                 meta: Optional[Dict] = None) -> None:
    """Persist a profile as ``zkml-hardware-profile/v1`` JSON.

    ``meta`` carries calibration provenance (fit constants, residuals,
    benchmark sizes) — it is stored verbatim and ignored on load.
    """
    doc = {
        "schema": PROFILE_SCHEMA,
        "name": profile.name,
        "cores": profile.cores,
        "ram_gb": profile.ram_gb,
        "t_fft": {str(k): v for k, v in sorted(profile.t_fft.items())},
        "t_msm": {str(k): v for k, v in sorted(profile.t_msm.items())},
        "t_lookup": {str(k): v for k, v in sorted(profile.t_lookup.items())},
        "t_field": profile.t_field,
    }
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(path: str) -> HardwareProfile:
    """Load a profile written by :func:`save_profile`."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            "%s is not a %s document (schema=%r)"
            % (path, PROFILE_SCHEMA, doc.get("schema")))
    return HardwareProfile(
        name=doc["name"],
        cores=int(doc["cores"]),
        ram_gb=int(doc["ram_gb"]),
        t_fft={int(k): float(v) for k, v in doc["t_fft"].items()},
        t_msm={int(k): float(v) for k, v in doc["t_msm"].items()},
        t_lookup={int(k): float(v) for k, v in doc["t_lookup"].items()},
        t_field=float(doc["t_field"]),
    )


def resolve_profile(
    name_or_path: Optional[str] = None,
    model_name: Optional[str] = None,
) -> HardwareProfile:
    """Resolve the hardware profile to price circuits against.

    Precedence: an explicit ``name_or_path`` (built-in profile name or
    path to a calibrated JSON), then the :data:`ENV_PROFILE` environment
    variable (same two forms), then the paper's per-model instance (or
    ``r6i.8xlarge`` when no model is named).  This is how ``zkml
    calibrate`` output replaces the static defaults everywhere without
    threading a flag through each call site.
    """
    if name_or_path is None:
        name_or_path = os.environ.get(ENV_PROFILE) or None
    if name_or_path is not None:
        if name_or_path in PROFILES:
            return PROFILES[name_or_path]
        if os.path.exists(name_or_path):
            return load_profile(name_or_path)
        raise ValueError(
            "unknown hardware profile %r (not a built-in: %s; not a file)"
            % (name_or_path, ", ".join(sorted(PROFILES))))
    if model_name is not None:
        return profile_for_model(model_name)
    return R6I_8XLARGE


_local_cache: Dict = {}

#: Columns per timed transform or commitment: the prover interpolates and
#: commits columns in batches (one Merkle tree per round, not per column;
#: a zoo mini's helper round holds 30-60), so the per-column cost the
#: model multiplies is the amortized one.  At 8 the per-leaf hashing cost
#: priced gpt2-mini's commitments ~2x high (calibration probe drift
#: 0.3-0.7 at k=10, against 0.1-0.25 at 32).
_BENCH_COLUMNS = 32


def _best_seconds(fn, repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed calls, after one untimed call that
    builds whatever tables the operation caches."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def benchmark_operations(
    field: PrimeField = GOLDILOCKS,
    ks=(8, 9, 10, 11, 12),
    scheme_name: str = "kzg",
) -> HardwareProfile:
    """Measure this machine's Python prover primitives (run once).

    The paper's ``BenchmarkOperations(hardware)`` step: time one FFT, one
    commitment ("MSM": a column's share of a round's Merkle tree), and
    one lookup-helper pass at several sizes, and
    one field multiply-add; larger sizes extrapolate.  Every operation is
    timed through the domain's vector backend, the code the prover runs.
    """
    key = (field.name, tuple(ks), scheme_name)
    cached = _local_cache.get(key)
    if cached is not None:
        return cached
    scheme = scheme_by_name(scheme_name, field)
    t_fft, t_msm, t_lookup = {}, {}, {}
    for k in ks:
        domain = EvaluationDomain(field, k)
        backend = domain.backend
        column = backend.from_ints(list(range(1, (1 << k) + 1)))
        columns = [column] * _BENCH_COLUMNS
        t_fft[k] = _best_seconds(
            lambda: domain.lagrange_to_coeff_batch(columns)) / _BENCH_COLUMNS
        # a round of columns, as the prover commits them: the extension is
        # priced as the extended FFT it is, so only the tree is timed here
        lde = domain.lde(np.stack(columns))
        t_msm[k] = _best_seconds(
            lambda: scheme.commit_round(domain, lde)) / _BENCH_COLUMNS
        t_lookup[k] = _best_seconds(lambda: backend.batch_inv(column))
    # the residual term prices a multiply-add per row of the extended
    # coset, so time it over one that size: over one base column (2^10
    # for ks 8-10) the per-call overhead nearly tripled it, and gpt2-mini's
    # constraint evaluation was priced ~2.5x high
    coset = backend.from_ints(list(range(1, (1 << (max(ks) + 2)) + 1)))
    t_field = _best_seconds(
        lambda: backend.fold(coset, 1234567, coset)) / len(coset)

    profile = HardwareProfile(
        name="local-python",
        cores=1,
        ram_gb=16,
        t_fft=t_fft,
        t_msm=t_msm,
        t_lookup=t_lookup,
        t_field=t_field,
    )
    _local_cache[key] = profile
    return profile
