"""Where the number-theoretic transforms switch algorithm.

The prover converts columns between coefficient and evaluation form with
the radix-2 and six-step kernels in :mod:`repro.field.gl64` (driven by
:class:`repro.field.domain.EvaluationDomain`); the optimizer's cost model
charges ``t_FFT(k)`` for each.  Their twiddle and power tables are
geometric sequences built by one kernel call each
(:func:`repro.field.gl64.powers`, :func:`repro.field.gl64.ntt_stages`)
and cached on the domain.
"""

from __future__ import annotations

#: ``log2`` of the size at which single transforms of
#: :class:`repro.field.domain.EvaluationDomain` switch to the six-step
#: decomposition (:func:`repro.field.gl64.sixstep_ntt`).
SIXSTEP_MIN_K = 16


def sixstep_min_n() -> int:
    """Size at which single transforms switch to the six-step decomposition."""
    return 1 << SIXSTEP_MIN_K
