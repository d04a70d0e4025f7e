"""Result tables for the benchmark harness.

Every bench prints the same rows/series the paper reports, plus a
paper-vs-measured comparison where the paper pins a number.  The plain-text
tables here keep that output dependency-free and diff-friendly (the bench
outputs are recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["Table", "format_share", "format_seconds", "comparison_table"]


def format_share(value: float) -> str:
    """A fraction as a percent string."""
    return f"{100.0 * value:5.1f}%"


def format_seconds(value: float) -> str:
    """Seconds with sensible precision."""
    if value >= 100:
        return f"{value:8.0f} s"
    if value >= 1:
        return f"{value:8.1f} s"
    return f"{value * 1000:6.1f} ms"


class Table:
    """A plain-text table with aligned columns."""

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add(self, *cells) -> None:
        """Append a row (cells are stringified)."""
        self.rows.append([str(cell) for cell in cells])

    def render(self) -> str:
        """The formatted table."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def comparison_table(
    title: str,
    paper: Dict[str, float],
    measured: Dict[str, float],
    formatter=format_share,
    order: Optional[List[str]] = None,
) -> Table:
    """Paper-vs-measured rows for the quantities the paper pins."""
    table = Table(["quantity", "paper", "measured"], title=title)
    keys = order or list(paper)
    for key in keys:
        table.add(
            key,
            formatter(paper[key]) if key in paper else "—",
            formatter(measured.get(key, 0.0)),
        )
    return table
