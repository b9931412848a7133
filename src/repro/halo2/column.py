"""Column kinds of the Plonkish grid.

- *advice*: private witness values assigned by the prover.
- *fixed*: circuit constants baked in at keygen (lookup tables live here).
- *instance*: public inputs shared with the verifier.
- *selector*: 0/1 fixed columns that switch gates on per row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class ColumnType(enum.Enum):
    ADVICE = "advice"
    FIXED = "fixed"
    INSTANCE = "instance"
    SELECTOR = "selector"


#: Column kinds by their code in packed cell formats (advice is 0).
KINDS: Tuple[ColumnType, ...] = tuple(ColumnType)

#: Bits of a cell code below the column index: the row.
ROW_BITS = 32


@dataclass(frozen=True, order=True)
class Column:
    """A column of the grid, identified by kind and per-kind index."""

    kind: ColumnType
    index: int

    def __repr__(self) -> str:
        return "%s[%d]" % (self.kind.value, self.index)


def cell_code(column: Column, row: int) -> int:
    """One integer naming a grid cell: ``kind << 56 | index << ROW_BITS |
    row``, so advice column ``i`` at ``row`` is ``i << ROW_BITS | row``.
    Entry homes and the builder's block writes carry cells this way."""
    return KINDS.index(column.kind) << 56 | column.index << ROW_BITS | row


def cell_of(code: int) -> Tuple[Column, int]:
    """The ``(column, row)`` a :func:`cell_code` names."""
    kind, index, row = unpack_cells([code])[0].tolist()
    return Column(KINDS[kind], index), row


def unpack_cells(codes) -> np.ndarray:
    """Cell codes as an ``(m, 3)`` ``int64`` array of kind, index, row."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.stack([codes >> 56, codes >> ROW_BITS & 0xFFFFFF,
                     codes & (1 << ROW_BITS) - 1], axis=1)
