"""Exporting experiment results as Markdown / CSV.

The figure runner prints fixed-width tables; this module provides
structured exports so results can be committed as Markdown, diffed
across runs, or loaded into other tools.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Union


@dataclass
class ResultTable:
    """A titled table of experiment results."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        """GitHub-flavoured Markdown rendering."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.1f}"
            return str(value)

        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (header + rows)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save(self, path: Union[str, Path]) -> None:
        """Write Markdown (``.md``) or CSV (anything else) by suffix."""
        path = Path(path)
        if path.suffix == ".md":
            path.write_text(self.to_markdown() + "\n")
        else:
            path.write_text(self.to_csv())


def combine_markdown(tables: Iterable[ResultTable], heading: str = "") -> str:
    """Join tables into one Markdown document."""
    parts: List[str] = []
    if heading:
        parts.append(f"# {heading}")
    parts.extend(table.to_markdown() for table in tables)
    return "\n\n".join(parts) + "\n"
