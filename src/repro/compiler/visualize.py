"""Circuit-layout visualization: what actually occupies the grid.

``render_row_map`` draws an ASCII strip of the grid showing which gadget
owns each band of rows (from a synthesized builder); ``render_breakdown``
prints the per-layer row budget from a physical layout.  Exposed through
``zkml inspect --per-layer``.
"""

from __future__ import annotations

from typing import List

from repro.compiler.physical import PhysicalLayout
from repro.gadgets import CircuitBuilder


def render_breakdown(layout: PhysicalLayout, top: int = 12) -> str:
    """Per-layer row budget, largest first, with a usage bar."""
    total = max(layout.gadget_rows, 1)
    items = sorted(layout.per_layer_rows.items(), key=lambda kv: -kv[1])
    lines = [
        "%s: %d columns x 2^%d rows; %s gadget rows (%.1f%% of grid), "
        "%s table rows"
        % (layout.spec.name, layout.num_cols, layout.k,
           "{:,}".format(layout.gadget_rows),
           100.0 * layout.gadget_rows / layout.n,
           "{:,}".format(layout.table_rows))
    ]
    shown = 0
    for name, rows in items:
        if rows == 0:
            continue
        if shown >= top:
            remaining = sum(r for _, r in items[shown:] if r)
            lines.append("  %-28s %10s rows (…)"
                         % ("(%d more layers)" % (len(items) - shown),
                            "{:,}".format(remaining)))
            break
        bar = "#" * max(int(40 * rows / total), 1)
        lines.append("  %-28s %10s rows  %s"
                     % (name[:28], "{:,}".format(rows), bar))
        shown += 1
    return "\n".join(lines)


def render_row_map(builder: CircuitBuilder, width: int = 64) -> str:
    """An ASCII strip of the grid: one character per band of rows.

    Each selector column is assigned a letter; a band's character is the
    selector active in most of its rows ('.' = unused rows).
    """
    selectors = builder.asg.selectors
    n = builder.asg.n
    num_selectors = builder.cs.num_selectors
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    band = max(n // width, 1)
    chars: List[str] = []
    for start in range(0, n, band):
        counts = [0] * (num_selectors + 1)
        for row in range(start, min(start + band, n)):
            active = None
            for sel in range(num_selectors):
                if selectors[sel, row]:
                    active = sel
                    break
            if active is None:
                counts[num_selectors] += 1
            else:
                counts[active] += 1
        best = max(range(num_selectors + 1), key=lambda i: counts[i])
        chars.append("." if best == num_selectors
                     else letters[best % len(letters)])
    legend = ", ".join(
        "%s=sel%d" % (letters[i % len(letters)], i)
        for i in range(num_selectors)
    )
    return "rows [%s]\nlegend: %s, .=unused" % ("".join(chars), legend)
