"""Deterministic SVG scatter plots of 2-D partitionings.

One fill color per partition from a fixed palette, affected points ringed in
black, and a legend that lists every partition id (including empty ones). The
output is a pure function of its inputs: identical dataset, assignment and
size always produce identical bytes.
"""

from __future__ import annotations

from .core import Dataset, PartitionAssignment

__all__ = ["PALETTE", "render_2d"]

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
    "#1b9e77",
    "#7570b3",
)

_PLOT_W = 560.0
_PLOT_H = 480.0
_MARGIN = 20.0
_LEGEND_W = 170.0


def render_2d(ds: Dataset, assignment: PartitionAssignment, path=None) -> str:
    """Render a 2-D dataset colored by partition; optionally write it to a file.

    The legend has one entry per partition, so an assignment with more
    partitions than the dataset has points, which no builder makes, is refused.
    """
    if ds.dims != 2:
        raise ValueError(f"rendering is 2-D only, dataset has {ds.dims} dimensions")
    if assignment.partition_count > ds.n:
        raise ValueError(f"assignment has {assignment.partition_count} partitions, more than the {ds.n} points")
    assignment.validate_against(ds)

    (x_lo, x_hi), (y_lo, y_hi) = ds.bounds
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / x_span * _PLOT_W

    def sy(y: float) -> float:
        return _MARGIN + (1.0 - (y - y_lo) / y_span) * _PLOT_H

    width = 2 * _MARGIN + _PLOT_W + _LEGEND_W
    height = 2 * _MARGIN + _PLOT_H
    sizes = assignment.sizes()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN:.1f}" y="{_MARGIN:.1f}" width="{_PLOT_W:.1f}" height="{_PLOT_H:.1f}" '
        f'fill="none" stroke="#cccccc" stroke-width="1"/>',
    ]
    for row in range(ds.n):
        pid = int(ds.ids[row])
        part = assignment.labels[pid]
        color = PALETTE[part % len(PALETTE)]
        ring = ' stroke="#000000" stroke-width="1.2"' if pid in assignment.affected else ""
        x, y = ds.coords[row]
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"{ring}/>')

    legend_x = 2 * _MARGIN + _PLOT_W
    for part in range(assignment.partition_count):
        color = PALETTE[part % len(PALETTE)]
        y0 = _MARGIN + 18.0 * part
        parts.append(f'<rect x="{legend_x:.1f}" y="{y0:.1f}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{legend_x + 18.0:.1f}" y="{y0 + 10.0:.1f}" font-family="monospace" font-size="11">'
            f"partition {part} ({int(sizes[part])} pts)</text>"
        )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
    return svg
