"""Text and SVG renderings of a labeled sector lattice.

Text mode prints the grid rows from y_max down to 0; every in-sector
cell shows the polynomial's value there and every other cell shows a
dot.  SVG mode draws labeled dots, the boundary ray m*y = n*x, and the
guide lines of the sector's line family (its staircases, the columns on
S(n)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import _excerpt
from .polynomials import QuadPoly
from .sectors import LatticePoint, Sector

MAX_TEXT_X = 200
MAX_TEXT_CELLS = 100_000
# the colors render copies into SVG attributes: #rgb, #rrggbb or a name
_COLOR = re.compile(r"#(?:[0-9A-Fa-f]{3}){1,2}|[A-Za-z]+")


@dataclass(frozen=True)
class RenderSpec:
    sector: Sector
    poly: QuadPoly
    max_x: int
    format: str = "text"
    cell_labels: bool = True
    color: str = "#000000"


def render(spec: RenderSpec) -> str:
    """Render the labeled grid; both formats are capped at MAX_TEXT_CELLS
    grid cells and text mode also at max_x = MAX_TEXT_X."""
    if not _COLOR.fullmatch(spec.color):
        raise ValueError(f"color must be #rgb, #rrggbb or an ASCII name, not {_excerpt(spec.color)}")
    if spec.max_x < 0:
        raise ValueError("max_x must be nonnegative")
    if spec.format == "text" and spec.max_x > MAX_TEXT_X:
        raise ValueError(f"text mode is capped at max_x = {MAX_TEXT_X}")
    cells = (spec.max_x + 1) * (spec.max_x * spec.sector.n // spec.sector.m + 1)
    if cells > MAX_TEXT_CELLS:
        raise ValueError(f"rendering is capped at {MAX_TEXT_CELLS} cells, this grid has {cells}")
    if spec.format == "text":
        return _render_text(spec)
    if spec.format == "svg":
        return _render_svg(spec)
    raise ValueError(f"unknown format {spec.format!r}")


def _cells(spec: RenderSpec) -> list[list[str]]:
    s, p = spec.sector, spec.poly
    y_max = spec.max_x * s.n // s.m
    rows = []
    for y in range(y_max, -1, -1):
        row = []
        for x in range(spec.max_x + 1):
            if s.contains(LatticePoint(x, y)):
                row.append(str(p.eval_int(LatticePoint(x, y))) if spec.cell_labels else "*")
            else:
                row.append("·")
        rows.append(row)
    return rows


def _render_text(spec: RenderSpec) -> str:
    rows = _cells(spec)
    width = max(len(cell) for row in rows for cell in row)
    return "\n".join(" ".join(cell.rjust(width) for cell in row) for row in rows) + "\n"


def _render_svg(spec: RenderSpec) -> str:
    s, p = spec.sector, spec.poly
    unit = 40
    pad = 30
    y_max = spec.max_x * s.n // s.m
    width = spec.max_x * unit + 2 * pad
    height = y_max * unit + 2 * pad

    def sx(x: float) -> float:
        return pad + x * unit

    def sy(y: float) -> float:
        return height - pad - y * unit

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # Boundary ray m*y = n*x, clipped at the grid edge.
    if y_max * s.m <= spec.max_x * s.n:
        bx, by = y_max * s.m / s.n, y_max
    else:
        bx, by = spec.max_x, spec.max_x * s.n / s.m
    parts.append(
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(bx):.1f}" y2="{sy(by):.1f}" '
        f'stroke="{spec.color}" stroke-width="1.5"/>'
    )
    # Line-family guide lines (m-1)*y = n*x - c*l across the viewport: from
    # y = 0 up to y = y_max, or to x = max_x where the line leaves the grid
    # there first.  On S(n) they are the columns x = c.
    for c in range((s.n * spec.max_x) // s.l + 1):
        room = s.n * spec.max_x - c * s.l
        if (s.m - 1) * y_max <= room:
            x2, y2 = (y_max * (s.m - 1) + c * s.l) / s.n, y_max
        else:
            x2, y2 = spec.max_x, room / (s.m - 1)
        parts.append(
            f'<line x1="{sx(c * s.l / s.n):.1f}" y1="{sy(0):.1f}" '
            f'x2="{sx(x2):.1f}" y2="{sy(y2):.1f}" '
            f'stroke="#bbbbbb" stroke-width="0.5"/>'
        )
    for x in range(spec.max_x + 1):
        for y in range(y_max + 1):
            pt = LatticePoint(x, y)
            if not s.contains(pt):
                continue
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{spec.color}"/>'
            )
            if spec.cell_labels:
                parts.append(
                    f'<text x="{sx(x) + 5:.1f}" y="{sy(y) - 5:.1f}" '
                    f'font-size="11" fill="{spec.color}">{p.eval_int(pt)}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
