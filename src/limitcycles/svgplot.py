"""Minimal self-contained SVG line plots.

No plotting dependency: sweeps and phase portraits only need polylines, axes
with sensible ticks, and a legend.  Every plot embeds its numeric data in an
XML comment block so downstream tooling can recover the exact series from
the artifact alone (XML comments must not contain ``--``, which
space-separated numbers never produce; labels are sanitized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import DomainError

__all__ = ["Series", "line_plot", "save_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 66
_MARGIN_RIGHT = 18
_MARGIN_TOP = 44
_MARGIN_BOTTOM = 52


@dataclass(frozen=True)
class Series:
    """One labeled polyline; NaN entries break the line into strokes."""

    label: str
    x: Sequence[float]
    y: Sequence[float]
    dashed: bool = False
    markers: bool = False

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise DomainError(
                f"series {self.label!r}: {len(self.x)} x values vs {len(self.y)} y values"
            )
        if len(self.x) == 0:
            raise DomainError(f"series {self.label!r} is empty")


def _finite_bounds(columns) -> Tuple[float, float]:
    """Least and greatest finite value over all ``columns``, moved 1 apart
    each way when they are equal."""
    finite = [v for values in columns for v in values if math.isfinite(v)]
    if not finite:
        raise DomainError("no finite data to plot")
    lo, hi = min(finite), max(finite)
    return (lo, hi) if lo < hi else (lo - 1.0, hi + 1.0)


def _nice_step(span: float) -> float:
    """The 1-2-5 step that splits ``span`` into about five ticks."""
    raw = span / 5
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float) -> List[float]:
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:g}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _comment_safe(text: str) -> str:
    while "--" in text:
        text = text.replace("--", "-")
    return text


def line_plot(
    series_list: Sequence[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render the series into one SVG document string."""
    if not series_list:
        raise DomainError("nothing to plot")

    x_lo, x_hi = _finite_bounds(s.x for s in series_list)
    y_lo, y_hi = _finite_bounds(s.y for s in series_list)
    pad_x = 0.02 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )

    # embedded numeric data for downstream parsing
    out.append("<!--")
    for s in series_list:
        out.append(f"series {_comment_safe(s.label)}")
        out.append("x: " + " ".join(f"{v:.11e}" for v in s.x))
        out.append("y: " + " ".join(f"{v:.11e}" for v in s.y))
    out.append("-->")

    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    # gridlines and ticks
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-size="12" '
            f'font-family="sans-serif" text-anchor="end">{_fmt(tick)}</text>'
        )

    # frame
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>'
    )

    # data
    for i, s in enumerate(series_list):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        stroke: List[str] = []
        strokes: List[List[str]] = []
        for xv, yv in zip(s.x, s.y):
            if math.isfinite(xv) and math.isfinite(yv):
                stroke.append(f"{px(xv):.2f},{py(yv):.2f}")
            elif stroke:
                strokes.append(stroke)
                stroke = []
        if stroke:
            strokes.append(stroke)
        for points in strokes:
            if len(points) == 1:
                cx, cy = points[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(points)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.8"{dash}/>'
                )
        if s.markers:
            for xv, yv in zip(s.x, s.y):
                if math.isfinite(xv) and math.isfinite(yv):
                    out.append(
                        f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="2.5" '
                        f'fill="{color}"/>'
                    )

    # legend
    legend_x = _MARGIN_LEFT + plot_w - 160
    legend_y = _MARGIN_TOP + 10
    out.append(
        f'<rect x="{legend_x - 8}" y="{legend_y - 6}" width="160" '
        f'height="{18 * len(series_list) + 8}" fill="white" stroke="#999999"/>'
    )
    for i, s in enumerate(series_list):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        y = legend_y + 18 * i + 6
        out.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        out.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(s.label)}</text>'
        )

    # labels
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="15" '
            f'font-family="sans-serif" text-anchor="middle">{_escape(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
            f'font-size="13" font-family="sans-serif" text-anchor="middle">'
            f"{_escape(xlabel)}</text>"
        )
    if ylabel:
        out.append(
            f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.0f}" font-size="13" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.0f})">'
            f"{_escape(ylabel)}</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_plot(path, series_list: Sequence[Series], **kwargs) -> None:
    """Render, then write: a plot that fails to render leaves no file."""
    svg = line_plot(series_list, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
