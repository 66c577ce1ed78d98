"""Plain-text tables for experiment output.

The experiment runner prints the same rows the paper's figures plot;
these helpers keep that output aligned and CSV-exportable without any
plotting dependency.
"""

from __future__ import annotations

from typing import IO, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


class Table:
    """A titled table of formatted rows."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Cell) -> None:
        """Append one row; numbers are formatted compactly."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        """The table as aligned plain text."""
        return format_table(self.title, self.columns, self.rows)

    def to_csv(self) -> str:
        """The table as CSV (no quoting; cells contain no commas)."""
        lines = [",".join(self.columns)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, stream: Optional[IO[str]] = None) -> None:
        """Print the rendered table (to stdout by default)."""
        text = self.render()
        if stream is None:
            print(text)
        else:
            stream.write(text + "\n")


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == int(cell) and abs(cell) < 1e12:
            return str(int(cell))
        return f"{cell:.2f}"
    return str(cell)


def format_table(
    title: str, columns: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render aligned plain text with a title rule."""
    widths = [len(col) for col in columns]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
