"""Static SVG rendering of book drawings in the circular model.

One circle per page, identical vertex placement across panels, straight
chords, per-panel crossing annotation.  Output is a pure function of the
drawing: identical inputs yield byte-identical SVG.
"""

from __future__ import annotations

import math

from .drawings import BookDrawing, count_crossings, vertex_name

_RADIUS = 140.0
_MARGIN = 36.0
_COLUMNS = 2


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(d: BookDrawing) -> str:
    """SVG 1.1 document with one panel per page."""
    nverts = d.m + d.n
    report = count_crossings(d)
    cols = min(_COLUMNS, d.k)
    rows = (d.k + cols - 1) // cols
    panel = 2 * (_RADIUS + _MARGIN)
    width = cols * panel
    height = rows * panel

    # vertex angles: position 0 at the top, clockwise on screen
    centers_unit = []
    for p in range(nverts):
        ang = -math.pi / 2 + 2 * math.pi * p / nverts
        centers_unit.append((math.cos(ang), math.sin(ang)))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<title>{d.k}-page drawing of K_{{{d.m},{d.n}}}, {report.total} crossings</title>',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]

    # chord end positions per page, in row-major (black, white) edge order
    bpos, wpos = d.layout.black_positions, d.layout.white_positions
    chords: list[list[tuple[int, int]]] = [[] for _ in range(d.k)]
    for i, row in enumerate(d.page_array.tolist()):
        for j, page in enumerate(row):
            chords[page].append((bpos[i], wpos[j]))

    for page in range(d.k):
        cx = (page % cols) * panel + panel / 2
        cy = (page // cols) * panel + panel / 2
        px = [cx + _RADIUS * ux for ux, _ in centers_unit]
        py = [cy + _RADIUS * uy for _, uy in centers_unit]
        out.append(f'<g id="page{page}">')
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_RADIUS)}" '
            'fill="none" stroke="#c8c8c8" stroke-width="1.00"/>'
        )
        for a, b in chords[page]:
            out.append(
                f'<line x1="{_fmt(px[a])}" y1="{_fmt(py[a])}" '
                f'x2="{_fmt(px[b])}" y2="{_fmt(py[b])}" '
                'stroke="#1f3a5f" stroke-width="1.40"/>'
            )
        for p, v in enumerate(d.layout.seq):
            fill = "#111111" if v[0] == "b" else "#ffffff"
            out.append(
                f'<circle cx="{_fmt(px[p])}" cy="{_fmt(py[p])}" r="6.00" '
                f'fill="{fill}" stroke="#111111" stroke-width="1.00">'
                f"<title>{vertex_name(v)}</title></circle>"
            )
        label = f"page {page}: {report.per_page[page]} crossings"
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy + _RADIUS + _MARGIN * 0.7)}" '
            'font-family="sans-serif" font-size="12.00" '
            f'text-anchor="middle">{label}</text>'
        )
        out.append("</g>")

    out.append(
        f'<text x="{_fmt(width / 2)}" y="{_fmt(_MARGIN * 0.55)}" '
        'font-family="sans-serif" font-size="12.00" text-anchor="middle">'
        f"K_{{{d.m},{d.n}}} in {d.k} pages, {report.total} crossings total</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
