"""MockProver: row-exact constraint checking with readable failures.

The analogue of halo2's ``MockProver``: instead of producing a proof it
walks the grid and checks every gate on every row, every copy constraint,
and every lookup, returning a :class:`FailureList` of
:class:`VerifyFailure` describing exactly what broke and where.  All
gadget and layer tests run through it.

When the caller supplies the synthesis *regions* (row ranges owned by
each model layer, recorded by :class:`~repro.gadgets.builder.CircuitBuilder`),
failures are attributed to the originating layer, and gate failures carry
the offending cell values — the raw material for ``zkml diagnose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.halo2.circuit import Assignment, ConstraintSystem
from repro.halo2.column import Column


@dataclass(frozen=True)
class VerifyFailure:
    """One constraint violation found by the MockProver."""

    kind: str  # 'gate' | 'copy' | 'lookup'
    name: str
    row: int
    detail: str
    #: Originating region, e.g. "layer 'fc_1' (fully_connected)"; empty
    #: when the prover was not given a region map.
    region: str = ""
    #: The referenced cell values at the failing row (gate failures).
    cells: str = ""

    def __str__(self) -> str:
        where = " in %s" % self.region if self.region else ""
        text = "%s %r violated at row %d%s: %s" % (
            self.kind, self.name, self.row, where, self.detail,
        )
        if self.cells:
            text += " [%s]" % self.cells
        return text


class FailureList(List[VerifyFailure]):
    """A (possibly capped) list of failures that knows the true total."""

    def __init__(self, items: Sequence[VerifyFailure] = (),
                 total: Optional[int] = None):
        super().__init__(items)
        self.total = len(self) if total is None else total

    @property
    def truncated(self) -> bool:
        return self.total > len(self)

    def summary(self) -> str:
        """One failure per line, with an '…and N more' tail when capped."""
        lines = [str(f) for f in self]
        if self.truncated:
            lines.append("...and %d more failures (report capped at %d)"
                         % (self.total - len(self), len(self)))
        return "\n".join(lines)


class _Collector:
    """Gathers failures up to a cap while counting every violation."""

    __slots__ = ("items", "total", "cap")

    def __init__(self, cap: Optional[int]):
        self.items: List[VerifyFailure] = []
        self.total = 0
        self.cap = cap

    @property
    def full(self) -> bool:
        return self.cap is not None and len(self.items) >= self.cap

    def add(self, failure: VerifyFailure) -> None:
        self.total += 1
        if self.cap is None or len(self.items) < self.cap:
            self.items.append(failure)


def _region_label(regions, row: int) -> str:
    """The innermost recorded region containing ``row`` (or '')."""
    if not regions:
        return ""
    best = None
    for region in regions:
        if region.start <= row < region.end:
            best = region  # later regions are more specific (same order)
    if best is None:
        return ""
    if best.kind:
        return "layer %r (%s, rows %d..%d)" % (best.name, best.kind,
                                               best.start, best.end - 1)
    return "region %r (rows %d..%d)" % (best.name, best.start, best.end - 1)


class MockProver:
    """Checks an assignment against its constraint system, row by row."""

    def __init__(self, cs: ConstraintSystem, assignment: Assignment,
                 regions=None):
        if assignment.cs is not cs:
            raise ValueError("assignment belongs to a different constraint system")
        self.cs = cs
        self.assignment = assignment
        self.regions = regions

    def verify(self, max_failures: Optional[int] = 32) -> FailureList:
        """All constraint violations.

        The returned list materializes at most ``max_failures`` entries
        but keeps counting, so ``FailureList.total`` is exact and the
        summary can say how much was elided.
        """
        collector = _Collector(max_failures)
        self._check_gates(collector)
        self._check_copies(collector)
        self._check_lookups(collector)
        return FailureList(collector.items, total=collector.total)

    def assert_satisfied(self) -> None:
        """Raise AssertionError with a readable report if anything fails."""
        failures = self.verify()
        if failures:
            raise AssertionError(
                "circuit not satisfied (%d failures):\n%s"
                % (failures.total, failures.summary())
            )

    # -- internals ------------------------------------------------------------

    def _gate_cells(self, constraint, row: int) -> str:
        asg = self.assignment
        field = self.cs.field
        parts = []
        for col, rot in sorted(constraint.refs(),
                               key=lambda q: (q[0].kind.value, q[0].index, q[1])):
            value = asg.value(col, row + rot)
            at = row + rot if rot == 0 else "%d%+d" % (row, rot)
            parts.append("%r@%s=%d" % (col, at, field.decode_signed(value)))
        return ", ".join(parts)

    def _check_gates(self, collector: _Collector) -> None:
        field = self.cs.field
        asg = self.assignment
        for gate in self.cs.gates:
            active_rows = range(asg.n)
            if gate.selector is not None:
                active_rows = np.flatnonzero(
                    asg.selectors[gate.selector.index]).tolist()
            for i, constraint in enumerate(gate.constraints):
                for row in active_rows:
                    def read(col: Column, rot: int, _row=row) -> int:
                        return asg.value(col, _row + rot)

                    value = constraint.evaluate(field, read)
                    if value != 0:
                        cells = ""
                        if not collector.full:
                            cells = self._gate_cells(constraint, row)
                        collector.add(
                            VerifyFailure(
                                kind="gate",
                                name="%s/%d" % (gate.name, i),
                                row=row,
                                detail="evaluates to %d"
                                % field.decode_signed(value),
                                region=_region_label(self.regions, row),
                                cells=cells,
                            )
                        )

    def _check_copies(self, collector: _Collector) -> None:
        asg = self.assignment
        for col_a, row_a, col_b, row_b in asg.copy_cells():
            va, vb = asg.value(col_a, row_a), asg.value(col_b, row_b)
            if va != vb:
                collector.add(
                    VerifyFailure(
                        kind="copy",
                        name="%r@%d == %r@%d" % (col_a, row_a, col_b, row_b),
                        row=row_a,
                        detail="%d != %d" % (va, vb),
                        region=_region_label(self.regions, row_a),
                    )
                )

    def _check_lookups(self, collector: _Collector) -> None:
        field = self.cs.field
        asg = self.assignment
        for lookup in self.cs.lookups:
            table_rows = set()
            for row in range(asg.n):
                def read(col: Column, rot: int, _row=row) -> int:
                    return asg.value(col, _row + rot)

                table_rows.add(
                    tuple(e.evaluate(field, read) for e in lookup.table)
                )
            # a row whose selector is off is not looked up
            active_rows = range(asg.n)
            if lookup.selector is not None:
                active_rows = np.flatnonzero(
                    asg.grid(lookup.selector.kind)[lookup.selector.index]
                ).tolist()
            for row in active_rows:
                def read(col: Column, rot: int, _row=row) -> int:
                    return asg.value(col, _row + rot)

                inputs = tuple(e.evaluate(field, read) for e in lookup.inputs)
                if inputs not in table_rows:
                    collector.add(
                        VerifyFailure(
                            kind="lookup",
                            name=lookup.name,
                            row=row,
                            detail="tuple %s not in table"
                            % (tuple(field.decode_signed(v) for v in inputs),),
                            region=_region_label(self.regions, row),
                        )
                    )
