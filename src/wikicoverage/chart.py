"""Bubble-chart data and a static SVG renderer.

Each language becomes one bubble: x is its related-article share, y its
related-views share, the area scales with article count, and the color flags
whether most readers sit in the primary country (blue, integer percent >= 50)
or not (red, <= 49).  Axes can be logarithmic with clamped limits, which keeps
small editions readable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .metrics import MetricsRow

RED = "red"
BLUE = "blue"
LOG = "log"
LINEAR = "linear"
SCALES = (LOG, LINEAR)

_FILL = {RED: "#c0392b", BLUE: "#2b6cb0"}


def color_bucket(ppcrw: Fraction) -> str:
    """Red when the rounded integer percent is 49 or below, else blue."""
    return RED if round(ppcrw * 100) <= 49 else BLUE


@dataclass(frozen=True)
class ChartDatum:
    language: str
    x: float
    y: float
    size: int
    color_bucket: str


@dataclass(frozen=True)
class ChartData:
    """Chart payload: the scale, the drop tally, and one datum per language."""

    scale: str
    dropped: int
    data: tuple[ChartDatum, ...]

    def to_json(self) -> str:
        payload = {
            "scale": self.scale,
            "dropped": self.dropped,
            "data": [
                {
                    "lang": d.language,
                    "x": d.x,
                    "y": d.y,
                    "size": d.size,
                    "color": d.color_bucket,
                }
                for d in self.data
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def build_chart_data(rows: Iterable[MetricsRow], scale: str) -> ChartData:
    """One datum per row; under a log scale zero-valued rows are dropped and tallied."""
    data: list[ChartDatum] = []
    dropped = 0
    for row in rows:
        if scale == LOG and (row.ras == 0 or row.ravs == 0):
            dropped += 1
            continue
        data.append(
            ChartDatum(
                language=row.language,
                x=float(row.ras),
                y=float(row.ravs),
                size=row.article_count,
                color_bucket=color_bucket(row.ppcrw),
            )
        )
    return ChartData(scale=scale, dropped=dropped, data=tuple(data))


# -- SVG ----------------------------------------------------------------------

_WIDTH, _HEIGHT = 720, 540
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 24, 24, 56
_MAX_RADIUS = 36.0
AXIS_LIMITS = (0.001, 1.0)  # both axes; values outside are clamped to these


def _project(value: float, lo: float, hi: float, scale: str) -> float:
    value = min(max(value, lo), hi)
    if scale == LOG:
        return (math.log10(value) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    return (value - lo) / (hi - lo)


def _ticks(lo: float, hi: float, scale: str) -> list[float]:
    if scale == LOG:
        start = math.ceil(math.log10(lo) - 1e-9)
        stop = math.floor(math.log10(hi) + 1e-9)
        return [10.0**k for k in range(start, stop + 1)]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, as ``xml.sax.saxutils.escape`` does.

    That module imports ``urllib.request`` and with it ``ssl`` and ``socket``,
    several MiB in every process that imports the package.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_svg(data: Sequence[ChartDatum], scale: str) -> str:
    """Static SVG bubble chart; radius grows with the square root of size.

    ``data`` is not empty, and every size is positive (an article count).
    """
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    max_size = max(d.size for d in data)
    radius_unit = _MAX_RADIUS / math.sqrt(max_size)

    def sx(value: float) -> float:
        return _MARGIN_LEFT + plot_w * _project(value, *AXIS_LIMITS, scale)

    def sy(value: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - _project(value, *AXIS_LIMITS, scale))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis_y = _MARGIN_TOP + plot_h
    ticks = _ticks(*AXIS_LIMITS, scale)
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick in ticks:
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{axis_y}" x2="{_fmt(x)}" y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 18}" font-size="11" text-anchor="middle">{tick:g}</text>'
        )
    for tick in ticks:
        y = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{_fmt(y)}" x2="{_MARGIN_LEFT}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" font-size="11" text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 16}" font-size="13" '
        'text-anchor="middle">related article share</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.0f})">related views share</text>'
    )

    for datum in data:
        cx, cy = sx(datum.x), sy(datum.y)
        radius = radius_unit * math.sqrt(datum.size)
        fill = _FILL[datum.color_bucket]
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
            f'fill="{fill}" fill-opacity="0.7" stroke="{fill}"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy - radius - 3)}" font-size="11" '
            f'text-anchor="middle">{_escape(datum.language)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
