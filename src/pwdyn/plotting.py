"""Plot documents: map graphs and cobweb staircases, as CSV or SVG.

All analysis stays exact; decimals appear only here, with the precision
stated in a header comment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .maps import MINUS, PLUS, PiecewiseMap
from .orbits import VariantSelector, variant_step

PRECISION = 12
SVG_SIZE = 480  # width and height, in pixels


def _dec(x: Fraction) -> str:
    return f"{float(x):.{PRECISION}g}"


def graph_segments(f: PiecewiseMap) -> list[tuple[str, Fraction, Fraction,
                                                  Fraction, Fraction]]:
    """Piece segments plus vertical jump markers."""
    rows = []
    for i, p in enumerate(f.pieces):
        rows.append((f"piece{i}", p.left, p.value_at(p.left),
                     p.right, p.value_at(p.right)))
    for j, w in enumerate(f.special_points().discontinuities):
        rows.append((f"jump{j}", w, f.lateral(w, MINUS), w, f.lateral(w, PLUS)))
    return rows


def cobweb_segments(f: PiecewiseMap, x0: Fraction, steps: int,
                    sel: VariantSelector
                    ) -> list[tuple[str, Fraction, Fraction, Fraction, Fraction]]:
    """Staircase of the exact orbit of the variant sel: vertical to the
    graph, horizontal to the diagonal."""
    seq = [x0]
    for _ in range(steps):
        seq.append(variant_step(f, seq[-1], sel))
    rows = []
    for i, (x, y) in enumerate(zip(seq, seq[1:])):
        rows.append((f"rise{i}", x, x, x, y))
        rows.append((f"run{i}", x, y, y, y))
    return rows


def to_csv(rows, mode: str) -> str:
    lines = [f"# pwdyn plot, mode: {mode}",
             f"# decimal precision: {PRECISION} significant digits",
             "segment,x1,y1,x2,y2"]
    for name, x1, y1, x2, y2 in rows:
        lines.append(f"{name},{_dec(x1)},{_dec(y1)},{_dec(x2)},{_dec(y2)}")
    return "\n".join(lines) + "\n"


def to_svg(f: PiecewiseMap, rows, mode: str) -> str:
    size, pad = SVG_SIZE, 40
    span = f.b - f.a

    def sx(v: Fraction) -> float:
        return pad + float((v - f.a) / span) * (size - 2 * pad)

    def sy(v: Fraction) -> float:
        return size - pad - float((v - f.a) / span) * (size - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<!-- pwdyn {mode} plot, decimals to {PRECISION} digits -->',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" '
             f'y2="{size - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{size - pad}" '
             f'stroke="black"/>',
             f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" '
             f'y2="{pad}" stroke="#bbbbbb" stroke-dasharray="4 3"/>']
    for name, x1, y1, x2, y2 in rows:
        if name.startswith("jump"):
            parts.append(
                f'<line x1="{sx(x1):.2f}" y1="{sy(y1):.2f}" x2="{sx(x2):.2f}" '
                f'y2="{sy(y2):.2f}" stroke="#999999" stroke-dasharray="2 3"/>')
            for yy in (y1, y2):
                parts.append(f'<circle cx="{sx(x1):.2f}" cy="{sy(yy):.2f}" '
                             'r="3" fill="white" stroke="black"/>')
        else:
            color = "#1f6fb2" if name.startswith("piece") else "#c23b22"
            parts.append(
                f'<line x1="{sx(x1):.2f}" y1="{sy(y1):.2f}" x2="{sx(x2):.2f}" '
                f'y2="{sy(y2):.2f}" stroke="{color}" stroke-width="1.6"/>')
    parts.append(f'<text x="{pad}" y="{pad - 10}" font-size="12">'
                 f'[{f.a}, {f.b}] {mode}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(f: PiecewiseMap, mode: str, sel: VariantSelector, *,
              x0: Optional[Fraction], steps: int, fmt: str) -> str:
    if mode == "graph":
        rows = graph_segments(f)
    elif mode == "cobweb":
        if x0 is None:
            raise ValueError("cobweb needs a starting point")
        rows = cobweb_segments(f, x0, steps, sel)
        if not rows:
            raise ValueError("plot of an empty orbit")
    else:
        raise ValueError(f"unknown plot mode {mode!r}")
    if fmt == "svg":
        return to_svg(f, rows, mode)
    return to_csv(rows, mode)
