"""The proving-cost model (paper §7.4, Eqs. 1–2).

For a physical layout with 2^k rows, the dominant proving costs are:

- FFTs:  ``n_FFT = N_i + N_a + 3*N_lk + (N_pm + d_max - 3)/(d_max - 2)``
  base-size FFTs plus ``n'_FFT = n_FFT + 1`` extended-size FFTs, where the
  extended size is ``k' = k + log2(d_max - 1)`` (the quotient coset);
- MSMs:  ``n_FFT + d_max - 1`` (KZG) or ``n_FFT + d_max`` (IPA) MSMs of
  size 2^k — the commitments to every column polynomial plus the quotient
  pieces and evaluation proof;
- lookup-column construction, one pass per lookup argument;
- residual field operations (constraint evaluation on the extended coset).

The same shape statistics also give the modeled verification time and
proof size per backend.

These are halo2's counts (its ``d_max``, its MSMs), kept as the paper's
accounting; what this repo's prover does is the circuit's
:class:`~repro.halo2.shape.ProofShape` (``PhysicalLayout.shape``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.commit.scheme import COMMITMENT_BYTES, SCALAR_BYTES
from repro.compiler.physical import PhysicalLayout
from repro.optimizer.hardware import HardwareProfile


@dataclass(frozen=True)
class CostBreakdown:
    """Estimated proving cost, itemized (seconds)."""

    fft: float
    msm: float
    lookup: float
    residual: float

    @property
    def total(self) -> float:
        return self.fft + self.msm + self.lookup + self.residual


def _d_max(layout: PhysicalLayout) -> int:
    """halo2's maximum constraint degree for a layout (Eq. 2's ``d_max``)."""
    return 4 if layout.num_lookups else 3


def num_ffts(layout: PhysicalLayout) -> float:
    """Eq. (2): the number of base-size FFTs."""
    d = _d_max(layout)
    return (
        layout.num_instance
        + layout.num_advice
        + 3 * layout.num_lookups
        + (layout.num_permutation_columns + d - 3) / (d - 2)
    )


def extended_k(layout: PhysicalLayout) -> int:
    """k' = k + log2(d_max - 1), the quotient coset size."""
    return layout.k + max(int(math.ceil(math.log2(_d_max(layout) - 1))), 1)


def num_msms(layout: PhysicalLayout, scheme_name: str) -> float:
    """n_MSM = n_FFT + d_max - 1 (KZG) or + d_max (IPA)."""
    d = _d_max(layout)
    extra = d - 1 if scheme_name == "kzg" else d
    return num_ffts(layout) + extra


def estimate_cost(
    layout: PhysicalLayout,
    hardware: HardwareProfile,
    scheme_name: str = "kzg",
) -> CostBreakdown:
    """Eq. (1) plus the MSM/lookup/residual terms."""
    n_fft = num_ffts(layout)
    k, k_ext = layout.k, extended_k(layout)
    fft_cost = n_fft * hardware.fft(k) + (n_fft + 1) * hardware.fft(k_ext)
    msm_cost = num_msms(layout, scheme_name) * hardware.msm(k)
    lookup_cost = layout.num_lookups * hardware.lookup(k)
    # residual: evaluating every constraint on the extended coset
    constraints = layout.num_selectors + layout.num_lookups * 3 + (
        layout.num_permutation_columns + 2
    )
    residual = hardware.t_field * constraints * (1 << k_ext)
    return CostBreakdown(fft=fft_cost, msm=msm_cost, lookup=lookup_cost,
                         residual=residual)


def estimate_verification_time(
    layout: PhysicalLayout,
    hardware: HardwareProfile,
    scheme_name: str = "kzg",
) -> float:
    """Modeled verification latency.

    KZG verifies with a constant number of pairings plus per-evaluation
    field work; IPA must recompute the folded commitment basis — O(n)
    group operations — which is why its verification is seconds rather
    than milliseconds at large k (Table 7).
    """
    evals = num_ffts(layout) + _d_max(layout)
    pairing_seconds = 2.5e-3  # one pairing check, amortized
    field_work = hardware.t_field * 600 * evals
    instance_work = hardware.t_field * 40 * sum(
        _shape_size(s) for s in layout.spec.inputs.values()
    )
    if scheme_name == "kzg":
        return pairing_seconds + field_work + instance_work
    group_op = 3.5e-7  # one elliptic-curve group operation
    return group_op * (1 << layout.k) + field_work + instance_work


def _shape_size(shape) -> int:
    out = 1
    for s in shape:
        out *= s
    return out


def estimate_proof_size(layout: PhysicalLayout, scheme_name: str = "kzg") -> int:
    """Modeled proof bytes: commitments + evaluations + multiopen argument."""
    commitments = (
        layout.num_advice          # advice columns
        + 3 * layout.num_lookups   # lookup argument columns
        + _perm_products(layout)   # permutation grand products
        + _d_max(layout) - 1       # quotient pieces
    )
    evaluations = num_ffts(layout) + _d_max(layout) + layout.num_fixed
    if scheme_name == "kzg":
        opening = 2 * SCALAR_BYTES
    else:
        opening = 2 * layout.k * SCALAR_BYTES + 2 * SCALAR_BYTES
    return int(
        COMMITMENT_BYTES * commitments
        + SCALAR_BYTES * evaluations
        + opening
    )


def _perm_products(layout: PhysicalLayout) -> int:
    d = _d_max(layout)
    return math.ceil(layout.num_permutation_columns / max(d - 2, 1))
