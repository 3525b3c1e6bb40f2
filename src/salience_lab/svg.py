"""Tiny deterministic SVG writer for the report plots.

Fixed-precision coordinates keep rerenders byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class Canvas:
    def __init__(self, width: int = 640, height: int = 480):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#444444", width=1.0):
        self._parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], stroke="#4c72b0", width=1.5):
        joined = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{joined}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def polygon(self, points: Sequence[tuple[float, float]], fill="#4c72b0", opacity=0.25):
        joined = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._parts.append(
            f'<polygon points="{joined}" fill="{fill}" fill-opacity="{_fmt(opacity)}" '
            f'stroke="none"/>'
        )

    def circle(self, x, y, r=2.5, fill="#4c72b0", opacity=0.8):
        self._parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}" '
            f'fill-opacity="{_fmt(opacity)}"/>'
        )

    def text(self, x, y, content: str, size=12, fill="#222222", anchor="start"):
        # A label such as a game id may hold &, < or >.  Not xml.sax.saxutils.escape:
        # that module imports urllib.request and ssl into every process that runs the CLI.
        content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self._parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" fill="{fill}" '
            f'text-anchor="{anchor}" font-family="sans-serif">{content}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


def _axis_bounds(values) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def scatter_plot(points_by_label: dict[str, list[tuple[float, float]]], title: str,
                 width=640, height=480) -> Canvas:
    """Labelled 2-D scatter with a legend; one palette colour per label."""
    canvas = Canvas(width, height)
    margin = 48
    xs = [p[0] for pts in points_by_label.values() for p in pts]
    ys = [p[1] for pts in points_by_label.values() for p in pts]
    if not xs:
        canvas.text(width / 2, height / 2, "no data", anchor="middle")
        return canvas
    x_lo, x_hi = _axis_bounds(xs)
    y_lo, y_hi = _axis_bounds(ys)

    def to_px(x, y):
        px = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        py = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return px, py

    canvas.line(margin, height - margin, width - margin, height - margin)
    canvas.line(margin, margin, margin, height - margin)
    canvas.text(width / 2, 24, title, size=14, anchor="middle")
    for i, (label, pts) in enumerate(sorted(points_by_label.items())):
        colour = PALETTE[i % len(PALETTE)]
        for x, y in pts:
            canvas.circle(*to_px(x, y), fill=colour)
        canvas.text(width - margin + 4, margin + 16 * i, label, size=11, fill=colour)
    return canvas


def curve_plot(curves: dict[str, list[tuple[int, float, float | None]]], title: str,
               x_label: str, width=640, height=480) -> Canvas:
    """Mean lines with optional shaded half-width bands per labelled curve."""
    canvas = Canvas(width, height)
    margin = 48
    xs = [x for rows in curves.values() for x, _, _ in rows]
    ys = [y + sign * (h or 0.0) for rows in curves.values() for _, y, h in rows
          for sign in (-1.0, 1.0)]  # each band's edges; a row without one is its mean
    if not xs:
        canvas.text(width / 2, height / 2, "no data", anchor="middle")
        return canvas
    x_lo, x_hi = min(xs), max(xs) if max(xs) > min(xs) else min(xs) + 1
    y_lo, y_hi = _axis_bounds(ys)

    def to_px(x, y):
        px = margin + (x - x_lo) / max(x_hi - x_lo, 1e-9) * (width - 2 * margin)
        py = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return px, py

    canvas.line(margin, height - margin, width - margin, height - margin)
    canvas.line(margin, margin, margin, height - margin)
    canvas.text(width / 2, 24, title, size=14, anchor="middle")
    canvas.text(width / 2, height - 12, x_label, size=11, anchor="middle")
    for i, (label, rows) in enumerate(sorted(curves.items())):
        colour = PALETTE[i % len(PALETTE)]
        band_rows = [(x, y, h) for x, y, h in rows if h is not None]
        if len(band_rows) >= 2:
            upper = [to_px(x, y + h) for x, y, h in band_rows]
            lower = [to_px(x, y - h) for x, y, h in reversed(band_rows)]
            canvas.polygon(upper + lower, fill=colour)
        canvas.polyline([to_px(x, y) for x, y, _ in rows], stroke=colour)
        canvas.text(width - margin + 4, margin + 16 * i, label, size=11, fill=colour)
    return canvas
