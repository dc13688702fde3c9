"""Chart models and deterministic SVG / plain-text renderers.

Charts are plain data (title + labeled polylines); builders turn variables,
firing vectors, and aggregated output curves into charts, and two pure
renderers draw any chart as an SVG 1.1 document or a fixed-size character
grid.  Same model in, byte-identical text out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import InferenceResult, fire_rules
from .model import FuzzySystem, Variable
from .mf import IntervalMF

#: Fixed palette; series cycle through it by index.
PALETTE = ("#4c72b0", "#dd8452", "#55a868", "#c44e52",
           "#8172b3", "#937860", "#da8bc3", "#8c8c8c")

_ASCII_MARKS = "*+o#x%@&"

DEFAULT_SAMPLES = 201


@dataclass(frozen=True)
class Series:
    """One labeled polyline."""

    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("series coordinate lists differ in length")


@dataclass(frozen=True)
class Chart:
    title: str
    series: tuple[Series, ...]


@dataclass(frozen=True)
class SystemFigure:
    """Grid of per-variable charts plus the rule list as text."""

    title: str
    charts: tuple[Chart, ...]
    rules: tuple[str, ...]


def _curve_series(label: str, mf, xs: np.ndarray) -> Series:
    ys = mf.sample(xs)
    return Series(label, tuple(float(x) for x in xs), tuple(float(y) for y in ys))


def plot_variable(v: Variable, samples: int = DEFAULT_SAMPLES) -> Chart:
    """Chart of every term's membership curve over the variable's domain."""
    if not isinstance(samples, int) or samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")
    xs = v.domain.grid(samples)
    series = []
    for name, mf in v.terms.items():
        if isinstance(mf, IntervalMF):
            series.append(_curve_series(f"{name} (upper)", mf.upper, xs))
            series.append(_curve_series(f"{name} (lower)", mf.lower, xs))
        else:
            series.append(_curve_series(name, mf, xs))
    return Chart(title=v.name, series=tuple(series))


def plot_firing(fis: FuzzySystem, inputs: dict) -> Chart:
    """Bar chart of rule activations for one set of inputs."""
    acts = fire_rules(fis, inputs).activations
    series = []
    for i, act in enumerate(acts):
        x0, x1 = i + 0.1, i + 0.9
        series.append(Series(f"R{i + 1}",
                             (x0, x0, x1, x1), (0.0, float(act), float(act), 0.0)))
    return Chart(title=f"{fis.name}: rule firing", series=tuple(series))


def plot_output(result: InferenceResult, name: str) -> Chart:
    """Chart of the aggregated output curve for one output variable."""
    if result.aggregated is None or name not in result.aggregated:
        raise ValueError(f"result holds no aggregated curve for {name!r}")
    curve = result.aggregated[name]
    if hasattr(curve, "lower"):  # interval type-2 band
        series = tuple(Series(f"{name} ({which})",
                              tuple(float(x) for x in c.xs),
                              tuple(float(y) for y in c.mus))
                       for which, c in (("upper", curve.upper),
                                        ("lower", curve.lower)))
    else:
        series = (Series(name, tuple(float(x) for x in curve.xs),
                         tuple(float(y) for y in curve.mus)),)
    return Chart(title=name, series=series)


def plot_system(fis: FuzzySystem, samples: int = DEFAULT_SAMPLES) -> SystemFigure:
    """One chart per variable (inputs then outputs) plus the rule list."""
    from .dsl import format_rule  # local import: dsl pulls in the parser

    charts = [plot_variable(v, samples) for v in fis.inputs.values()]
    charts += [plot_variable(v, samples) for v in fis.outputs.values()]
    rules = tuple(format_rule(rule) for rule in fis.rules)
    return SystemFigure(title=fis.name, charts=tuple(charts), rules=rules)


def _bounds(chart: Chart) -> tuple[float, float, float, float]:
    xs = [x for s in chart.series for x in s.xs]
    ys = [y for s in chart.series for y in s.ys]
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    x0, x1 = min(xs), max(xs)
    if x1 <= x0:
        x0, x1 = x0 - 0.5, x0 + 0.5
    y0 = min(0.0, min(ys))
    y1 = max(1.0, max(ys))
    return x0, x1, y0, y1


def _escape(text: str) -> str:
    """``text`` safe as SVG element text: ``&``, ``<`` and ``>`` as entities,
    what ``xml.sax.saxutils.escape`` does by default.  Importing that would
    load the HTTP, TLS and e-mail modules: most of the memory that ``import
    fuzzkit`` adds to numpy's."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _chart_group(chart: Chart, width: int, height: int) -> list[str]:
    """SVG body lines (no <svg> envelope) drawing the chart at (0, 0)."""
    ml, mr, mt, mb = 46.0, 10.0, 26.0, 22.0
    pw, ph = width - ml - mr, height - mt - mb
    x0, x1, y0, y1 = _bounds(chart)

    def px(x: float) -> str:
        return f"{ml + (x - x0) / (x1 - x0) * pw:.2f}"

    def py(y: float) -> str:
        return f"{mt + (1.0 - (y - y0) / (y1 - y0)) * ph:.2f}"

    out = [f'<rect x="0" y="0" width="{width}" height="{height}" '
           f'fill="white" stroke="#cccccc"/>',
           f'<text x="{width / 2:.2f}" y="17" text-anchor="middle" '
           f'font-family="sans-serif" font-size="13" font-weight="bold">'
           f'{_escape(chart.title)}</text>',
           f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" '
           f'y2="{mt + ph:.2f}" stroke="black"/>',
           f'<line x1="{ml:.2f}" y1="{mt + ph:.2f}" x2="{ml + pw:.2f}" '
           f'y2="{mt + ph:.2f}" stroke="black"/>']
    for frac, value in ((0.0, y0), (1.0, y1)):
        out.append(f'<text x="{ml - 4:.2f}" y="{mt + (1.0 - frac) * ph + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="10">'
                   f'{value:g}</text>')
    for frac, value in ((0.0, x0), (1.0, x1)):
        out.append(f'<text x="{ml + frac * pw:.2f}" y="{mt + ph + 14:.2f}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                   f'{value:g}</text>')
    for i, s in enumerate(chart.series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in zip(s.xs, s.ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')
        out.append(f'<text x="{ml + pw - 4:.2f}" y="{mt + 12 + 12 * i:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="10" '
                   f'fill="{color}">{_escape(s.label)}</text>')
    return out


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = [f'<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">']
    return "\n".join(head + body + ["</svg>"]) + "\n"


def render_svg(chart: Chart, width: int = 480, height: int = 320) -> str:
    """Standalone SVG 1.1 document for one chart."""
    return _svg_document(width, height, _chart_group(chart, width, height))


def render_system_svg(figure: SystemFigure, cell_width: int = 480,
                      cell_height: int = 320, columns: int = 2) -> str:
    """Grid of charts with a trailing text panel listing the rules."""
    cells = len(figure.charts) + 1
    columns = max(1, columns)
    rows = (cells + columns - 1) // columns
    width, height = columns * cell_width, rows * cell_height
    body = []
    for i, chart in enumerate(figure.charts):
        tx, ty = (i % columns) * cell_width, (i // columns) * cell_height
        body.append(f'<g transform="translate({tx},{ty})">')
        body.extend(_chart_group(chart, cell_width, cell_height))
        body.append("</g>")
    i = len(figure.charts)
    tx, ty = (i % columns) * cell_width, (i // columns) * cell_height
    body.append(f'<g transform="translate({tx},{ty})">')
    body.append(f'<rect x="0" y="0" width="{cell_width}" height="{cell_height}" '
                f'fill="white" stroke="#cccccc"/>')
    body.append(f'<text x="{cell_width / 2:.2f}" y="17" text-anchor="middle" '
                f'font-family="sans-serif" font-size="13" font-weight="bold">'
                f'{_escape(figure.title)}: rules</text>')
    for j, line in enumerate(figure.rules):
        body.append(f'<text x="10" y="{40 + 16 * j}" font-family="monospace" '
                    f'font-size="11">{_escape(line)}</text>')
    body.append("</g>")
    return _svg_document(width, height, body)


def render_ascii(chart: Chart, width: int, height: int) -> str:
    """Character-grid rendering: exactly ``height`` lines of ``width`` chars.

    Row 0 carries the title, the last row the x-axis, column 0 the y-axis.
    """
    if width < 20 or height < 5:
        raise ValueError(f"ascii canvas must be at least 20x5, got {width}x{height}")
    grid = [[" "] * width for _ in range(height)]
    title = chart.title[:width]
    grid[0][:len(title)] = list(title)

    top, bottom = 1, height - 2
    left, right = 1, width - 1
    rows, cols = bottom - top + 1, right - left + 1
    for r in range(top, bottom + 1):
        grid[r][0] = "|"
    grid[height - 1][0] = "+"
    for c in range(1, width):
        grid[height - 1][c] = "-"

    x0, x1, y0, y1 = _bounds(chart)

    def cell(x: float, y: float) -> tuple[int, int]:
        c = left + int(round((x - x0) / (x1 - x0) * (cols - 1)))
        r = top + int(round((1.0 - (y - y0) / (y1 - y0)) * (rows - 1)))
        return (min(max(r, top), bottom), min(max(c, left), right))

    steps = 2 * max(width, height)
    for i, s in enumerate(chart.series):
        mark = _ASCII_MARKS[i % len(_ASCII_MARKS)]
        if not s.xs:
            continue
        if len(s.xs) == 1:
            r, c = cell(s.xs[0], s.ys[0])
            grid[r][c] = mark
            continue
        for (xa, ya), (xb, yb) in zip(zip(s.xs, s.ys), zip(s.xs[1:], s.ys[1:])):
            for k in range(steps + 1):
                t = k / steps
                r, c = cell(xa + (xb - xa) * t, ya + (yb - ya) * t)
                grid[r][c] = mark
    return "\n".join("".join(row) for row in grid)
