"""Terminal bar charts for the benchmark grids.

The paper presents its evaluation as grouped bar charts (Figs. 8-11, 15).
This module renders the same shape as ASCII art so a terminal-only run of
the benchmark suite still produces a visual: one group of bars per query,
one bar per engine, log or linear scaling, OOM shown as the paper's
"empty" bar.
"""

from __future__ import annotations

import math

from repro.bench.harness import GridResult

#: Glyph used per engine bar, cycled in engine order.
BAR_GLYPHS = "#*+o@%"


def _scaled(value: float, limit: float, width: int, log: bool) -> int:
    if value <= 0:
        return 0
    if log:
        floor = limit / 10 ** 6
        position = math.log10(max(value, floor) / floor)
        full = math.log10(limit / floor)
    else:
        position, full = value, limit
    if full <= 0:
        return 0
    return max(1, round(width * min(1.0, position / full)))


def grouped_bar_chart(
    grid: GridResult,
    metric=lambda r: r.makespan,
    title: str = "time (simulated s)",
    width: int = 44,
    log: bool = False,
) -> str:
    """Render one grouped bar chart from a benchmark grid.

    Engines keep a stable glyph across groups; failed (OOM) runs render as
    an annotated empty bar, mirroring the paper's missing bars.
    """
    engines = grid.engines()
    values = [
        metric(grid.get(e, q))
        for e in engines
        for q in grid.queries()
        if grid.get(e, q) and not grid.get(e, q).failed
    ]
    limit = max(values) if values else 1.0
    lines = [
        f"{grid.dataset}: {title} "
        f"({'log' if log else 'linear'} scale, max={limit:.4g})"
    ]
    legend = "  ".join(
        f"{BAR_GLYPHS[i % len(BAR_GLYPHS)]}={e}"
        for i, e in enumerate(engines)
    )
    lines.append(f"legend: {legend}")
    for q in grid.queries():
        lines.append(f"{q}:")
        for i, e in enumerate(engines):
            result = grid.get(e, q)
            glyph = BAR_GLYPHS[i % len(BAR_GLYPHS)]
            if result is None:
                continue
            if result.failed:
                lines.append(f"  {e:<9}|  (OOM)")
                continue
            bar = glyph * _scaled(metric(result), limit, width, log)
            lines.append(f"  {e:<9}|{bar} {metric(result):.4g}")
    return "\n".join(lines)
