"""Plain-text charts for experiment output.

The experiment runner prints tables; for latency-vs-load style series a
small ASCII chart makes the knee visible at a glance without any
plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Series = Sequence[Tuple[float, float]]

_MARKS = "*o+x#@%&"


def render_chart(
    series: Dict[str, Series],
    width: int = 56,
    height: int = 14,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more (x, y) series as an ASCII scatter chart.

    Each named series gets its own mark; axes are scaled to the joint
    data range and annotated with min/max.  Intended for monotone
    experiment sweeps (a handful of points per series), not dense data.
    """
    if not series or all(not points for points in series.values()):
        raise ValueError("need at least one non-empty series")
    if width < 10 or height < 4:
        raise ValueError("chart too small to draw")

    xs = [x for points in series.values() for x, _ in points]
    ys = [y for points in series.values() for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0

    grid: List[List[str]] = [
        [" "] * width for _ in range(height)
    ]
    for index, (name, points) in enumerate(sorted(series.items())):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in points:
            column = round((x - x_low) / x_span * (width - 1))
            row = round((y - y_low) / y_span * (height - 1))
            grid[height - 1 - row][column] = mark

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_high:g}"
    bottom_label = f"{y_low:g}"
    pad = max(len(top_label), len(bottom_label), len(y_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(pad)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(pad)
        elif row_index == height // 2 and y_label:
            prefix = y_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    axis = f"{' ' * pad} +{'-' * width}"
    lines.append(axis)
    x_line = f"{x_low:g}".ljust(width - len(f"{x_high:g}")) + f"{x_high:g}"
    lines.append(f"{' ' * pad}  {x_line}")
    if x_label:
        lines.append(f"{' ' * pad}  {x_label.center(width)}")
    legend = "  ".join(
        f"{_MARKS[i % len(_MARKS)]}={name}"
        for i, name in enumerate(sorted(series))
    )
    lines.append(f"{' ' * pad}  [{legend}]")
    return "\n".join(lines)
