"""Global low-overhead operation counters for the proving substrate.

The optimizer's cost model (paper §7.4, Eqs. 1–2) prices a layout from
*counts* — how many base/extended FFTs, how many commitments, how many
lookup passes.  To check those predictions against reality the hot paths
(:mod:`repro.field.domain`, :mod:`repro.commit`) bump the plain-integer
fields of the shared :data:`STATS` object; a single attribute increment
per O(n log n) transform is far below measurement noise, so the counters
stay on unconditionally and the disabled-observability path needs no
branching at all.

Counters are per-process and a proof runs in one process, so a prove's
:meth:`ObsStats.delta` is complete; ``zkml serve --workers N`` ships each
worker's delta back with the batch result (:mod:`repro.obs.cluster`).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Counter field names, in snapshot order.
#:
#: ``ntt_base``/``ntt_extended`` count *logical* per-column transforms:
#: a batched kernel call over ``m`` stacked columns bumps the counter by
#: ``m``, so counts stay comparable with the per-column implementation
#: (and with the optimizer's predicted counts).  ``ntt_plan_hits`` counts
#: reuses of cached NTT plans (twiddle stages, bit-reversal permutations,
#: power/scale tables, six-step plans); ``sparsity_skips`` counts work
#: items (transforms, commitments) skipped because a column was detected
#: to be identically zero.
FIELDS = (
    "ntt_base",
    "ntt_extended",
    "commitments",
    "openings",
    "lookup_passes",
    "transcript_absorbs",
    "challenges",
    "merkle_leaf_hashes",
    "merkle_node_hashes",
    "ntt_plan_hits",
    "sparsity_skips",
)


class ObsStats:
    """A bundle of monotonic operation counters (plain ints)."""

    __slots__ = FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable point-in-time copy, for later :meth:`delta`."""
        return tuple(getattr(self, name) for name in FIELDS)

    def delta(self, since: Tuple[int, ...]) -> Dict[str, int]:
        """Counter increments since a :meth:`snapshot`."""
        return {
            name: getattr(self, name) - before
            for name, before in zip(FIELDS, since)
        }

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in FIELDS}


#: The process-wide counter instance every instrumented module bumps.
STATS = ObsStats()
