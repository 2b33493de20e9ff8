"""Plain-text result tables for the benchmark harness.

Benches print the same kind of rows the paper's evaluation shows on screen.
Kept dependency-free and deterministic (no terminal-width probing).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str | None = None,
    floatfmt: str = ".3f",
) -> str:
    """Render an aligned ASCII table.

    Floats are formatted with *floatfmt*; everything else with ``str``.
    """
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("yes" if cell else "no")
            elif isinstance(cell, float):
                cells.append(format(cell, floatfmt))
            else:
                cells.append(str(cell))
        rendered.append(cells)

    widths = [len(h) for h in headers]
    for cells in rendered:
        for i, c in enumerate(cells):
            widths[i] = max(widths[i], len(c))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out: list[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for cells in rendered:
        out.append(line(cells))
    return "\n".join(out)
