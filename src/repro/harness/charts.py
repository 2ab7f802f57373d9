"""Terminal charts for experiment results.

Dependency-free ASCII rendering so the CLI and examples can show the
paper's figures as pictures, not just tables: grouped bars (Figure 7's
noise groups, Table 1's stacks) and multi-series lines over log-log axes
(Figures 8/9's message-size sweeps, Figures 10/11's scaling curves).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _scaled_bar(value: float, vmax: float, width: int) -> str:
    """A horizontal bar of fractional-width unicode blocks."""
    if vmax <= 0:
        return ""
    cells = value / vmax * width
    full = int(cells)
    frac = cells - full
    bar = "█" * full
    idx = int(frac * (len(_BLOCKS) - 1))
    if idx > 0:
        bar += _BLOCKS[idx]
    return bar


def bar_chart(
    title: str,
    values: Mapping[str, float],
    width: int = 48,
    unit: str = "ms",
) -> str:
    """Horizontal bar chart, one row per labelled value."""
    if not values:
        raise ValueError("bar_chart needs at least one value")
    vmax = max(values.values())
    label_w = max(len(k) for k in values)
    lines = [title, "-" * len(title)]
    for label, v in values.items():
        lines.append(
            f"{label:<{label_w}} |{_scaled_bar(v, vmax, width):<{width}}| "
            f"{v:10.3f} {unit}"
        )
    return "\n".join(lines)


def grouped_bar_chart(
    title: str,
    groups: Mapping[str, Mapping[str, float]],
    width: int = 40,
    unit: str = "ms",
) -> str:
    """Bars grouped under headers — e.g. per-library noise levels (Fig 7)."""
    if not groups:
        raise ValueError("grouped_bar_chart needs at least one group")
    vmax = max(v for g in groups.values() for v in g.values())
    label_w = max(len(k) for g in groups.values() for k in g)
    lines = [title, "=" * len(title)]
    for group, values in groups.items():
        lines.append(group)
        for label, v in values.items():
            lines.append(
                f"  {label:<{label_w}} |{_scaled_bar(v, vmax, width):<{width}}| "
                f"{v:9.3f} {unit}"
            )
    return "\n".join(lines)


#: The line chart's plot area, in rows and columns.
_LINE_HEIGHT = 14
_LINE_WIDTH = 64


def line_chart(
    title: str, x: Sequence[float], series: Mapping[str, Sequence[float]],
) -> str:
    """Multi-series scatter/line over a log-log plane, in milliseconds.

    Each series gets a distinct marker; collisions show the later series'
    marker. Axis extremes are annotated.
    """
    if not series or not x:
        raise ValueError("line_chart needs x values and at least one series")
    markers = "ox+*#@%&"
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length != x length")
    height, width, log10 = _LINE_HEIGHT, _LINE_WIDTH, math.log10
    xmin, xmax = log10(min(x)), log10(max(x))
    all_y = [v for ys in series.values() for v in ys if v > 0]
    ymin, ymax = log10(min(all_y)), log10(max(all_y))
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), markers):
        for xv, yv in zip(x, ys):
            col = int((log10(xv) - xmin) / xspan * (width - 1))
            row = height - 1 - int((log10(yv) - ymin) / yspan * (height - 1))
            grid[row][col] = marker
    lines = [title, "=" * len(title)]
    top_label = f"{10 ** ymax:.3g} ms"
    bot_label = f"{10 ** ymin:.3g} ms"
    for i, row in enumerate(grid):
        prefix = top_label if i == 0 else (bot_label if i == height - 1 else "")
        lines.append(f"{prefix:>12} |{''.join(row)}")
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(
        " " * 13
        + f"{min(x):<10g}{'':^{max(0, width - 20)}}{max(x):>10g}"
    )
    legend = "  ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(f"{'':>13} {legend}")
    return "\n".join(lines)


def experiment_line_chart(result) -> str:
    """Render an :class:`ExperimentResult` sweep (Figures 8/9 style): one
    series per ``library``, ``mean_ms`` over ``nbytes``."""
    rows = result.rows
    si = result.headers.index("library")
    xi = result.headers.index("nbytes")
    vi = result.headers.index("mean_ms")
    xs = sorted({r[xi] for r in rows})
    series: dict[str, list[float]] = {}
    for name in sorted({r[si] for r in rows}):
        by_x = {r[xi]: r[vi] for r in rows if r[si] == name}
        if set(by_x) == set(xs):
            series[name] = [by_x[x] for x in xs]
    return line_chart(f"{result.experiment}: {result.title}", xs, series)
