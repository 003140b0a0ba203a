"""Text rendering of figure results: grid tables and ASCII bar charts.

The paper presents Figures 4-9 as grouped bar charts over (algorithm,
topology); a text harness renders the same data as aligned tables plus an
optional ASCII bar chart for quick visual comparison in terminal output.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_grid_table", "format_bar_chart", "format_breakdown"]


def format_grid_table(
    title: str,
    values: Mapping[str, Mapping[str, float]],
    row_order: Sequence[str],
    col_order: Sequence[str],
    unit: str = "",
    precision: int = 2,
) -> str:
    """Render ``values[row][col]`` as an aligned table.

    Rows are algorithms, columns topologies (the paper's figure layout).
    """
    width = max(12, max((len(r) for r in row_order), default=0) + 2)
    col_width = max(12, max((len(c) for c in col_order), default=0) + 2)
    lines = [title + (f"  [{unit}]" if unit else "")]
    header = " " * width + "".join(f"{c:>{col_width}}" for c in col_order)
    lines.append(header)
    lines.append("-" * len(header))
    for row in row_order:
        cells = []
        for col in col_order:
            v = values.get(row, {}).get(col)
            if v is None:
                cells.append(f"{'--':>{col_width}}")
            else:
                cells.append(f"{v:>{col_width}.{precision}f}")
        lines.append(f"{row:<{width}}" + "".join(cells))
    return "\n".join(lines)


def format_bar_chart(
    title: str,
    values: Mapping[str, float],
    unit: str = "",
    width: int = 46,
    precision: int = 2,
) -> str:
    """Render a labelled horizontal ASCII bar chart."""
    lines = [title + (f"  [{unit}]" if unit else "")]
    if not values:
        return lines[0] + "\n  (no data)"
    label_width = max(len(k) for k in values) + 2
    peak = max(values.values()) or 1.0
    for label, v in values.items():
        bar = "#" * max(0, int(round(width * v / peak)))
        lines.append(f"  {label:<{label_width}} {bar} {v:.{precision}f}")
    return "\n".join(lines)


def format_breakdown(
    title: str, fractions: Mapping[str, float], precision: int = 1
) -> str:
    """Render a percentage breakdown (Figure 7 style)."""
    lines = [title]
    for label, frac in sorted(fractions.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:<16} {100.0 * frac:>6.{precision}f}%")
    return "\n".join(lines)
