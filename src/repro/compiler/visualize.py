"""Circuit-layout visualization: what actually occupies the grid.

``render_breakdown`` prints the per-layer row budget from a physical
layout.  Exposed through ``zkml inspect --per-layer``.
"""

from __future__ import annotations

from repro.compiler.physical import PhysicalLayout


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
