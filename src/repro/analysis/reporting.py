"""Plain-text reporting helpers used by the CLI and examples.

The paper's "evaluation" is a set of theorems; every report therefore prints
a small table with a *paper* column (the closed-form bound) and a *measured*
column.  These helpers keep that formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["format_table", "format_paper_vs_measured", "format_series", "format_quantity"]

Cell = Union[str, float, int, None]


def format_quantity(value: Cell, precision: int = 6) -> str:
    """Render one cell: floats in general-purpose scientific-ish form."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 precision: int = 6) -> str:
    """A minimal monospace table (no external dependencies)."""
    rendered_rows = [[format_quantity(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [render(list(headers)), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rendered_rows)
    return "\n".join(lines)


def format_paper_vs_measured(rows: Iterable[Tuple[str, Cell, Cell]],
                             precision: int = 6) -> str:
    """Table with (quantity, paper bound/estimate, measured) columns."""
    table_rows: List[Sequence[Cell]] = []
    for name, paper, measured in rows:
        ratio: Cell = None
        if isinstance(paper, (int, float)) and isinstance(measured, (int, float)) \
                and paper not in (0, None):
            ratio = float(measured) / float(paper)
        table_rows.append((name, paper, measured, ratio))
    return format_table(["quantity", "paper", "measured", "measured/paper"],
                        table_rows, precision=precision)


def format_series(name: str, values: Sequence[float], precision: int = 6) -> str:
    """One labelled numeric series (a 'figure' as a row of numbers)."""
    rendered = ", ".join(format_quantity(v, precision) for v in values)
    return f"{name}: [{rendered}]"
