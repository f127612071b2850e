"""Static SVG renderings of series matrices, intensity vectors, and
permutation-test results.

The output is plain SVG 1.1 built by string assembly with fixed number
formatting, so a given input always produces byte-identical markup.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParamError
from .spectral import IntensityVector, SpectrumTestResult

__all__ = ["emit_plot"]

_SERIES_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
_MARK_COLOR = "#d62728"
_MARGIN_X, _MARGIN_Y = 60, 40


def _fmt(v):
    return f"{v:.2f}"


def _axis_limits(lo, hi):
    if hi <= lo:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _tag(name, body=None, **attrs):
    """One SVG element with its attributes in the order given; ``_`` in an
    attribute name is written as ``-``."""
    head = " ".join([name] + [f'{key.replace("_", "-")}="{value}"' for key, value in attrs.items()])
    return f"<{head}/>" if body is None else f"<{head}>{body}</{name}>"


class _Panel:
    """One framed plot panel mapping data coordinates to SVG pixels; its axes
    span the data ranges ``xrange`` and ``yrange``, padded."""

    width, height = 520, 300

    def __init__(self, x0, y0, xrange, yrange, title, xlabel, ylabel):
        self.x0, self.y0 = x0, y0
        self.xlim, self.ylim = _axis_limits(*xrange), _axis_limits(*yrange)
        self.parts = []
        self._frame(title, xlabel, ylabel)

    def px(self, x):
        frac = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        return self.x0 + frac * self.width

    def py(self, y):
        frac = (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return self.y0 + self.height - frac * self.height

    def text(self, body, x, y, anchor, size, fill, **attrs):
        self.parts.append(_tag("text", body, x=_fmt(x), y=_fmt(y), text_anchor=anchor,
                               font_size=size, fill=fill, **attrs))

    def _frame(self, title, xlabel, ylabel):
        mid_x, mid_y = self.x0 + self.width / 2, self.y0 + self.height / 2
        bottom = self.y0 + self.height
        self.parts.append(_tag("rect", x=_fmt(self.x0), y=_fmt(self.y0), width=_fmt(self.width),
                               height=_fmt(self.height), fill="none", stroke="#333333",
                               stroke_width=1))
        self.text(title, mid_x, self.y0 - 8, "middle", 13, "#111111")
        self.text(xlabel, mid_x, bottom + 28, "middle", 11, "#111111")
        self.text(ylabel, self.x0 - 34, mid_y, "middle", 11, "#111111",
                  transform=f"rotate(-90 {_fmt(self.x0 - 34)} {_fmt(mid_y)})")
        for frac, value in ((0.0, self.ylim[0]), (1.0, self.ylim[1])):
            y = self.py(self.ylim[0] + frac * (self.ylim[1] - self.ylim[0]))
            self.text(f"{value:.4g}", self.x0 - 5, y + 4, "end", 10, "#333333")
        for frac, value in ((0.0, self.xlim[0]), (1.0, self.xlim[1])):
            x = self.px(self.xlim[0] + frac * (self.xlim[1] - self.xlim[0]))
            self.text(f"{value:.4g}", x, bottom + 14, "middle", 10, "#333333")

    def polyline(self, xs, ys, color, width=1.2):
        points = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, ys))
        self.parts.append(_tag("polyline", points=points, fill="none", stroke=color,
                               stroke_width=width))

    def circle(self, x, y, radius, color):
        self.parts.append(_tag("circle", cx=_fmt(self.px(x)), cy=_fmt(self.py(y)), r=radius,
                               fill=color))

    def vline(self, x, y0, y1, color, width=1.5):
        x = _fmt(self.px(x))
        self.parts.append(_tag("line", x1=x, y1=_fmt(self.py(y0)), x2=x, y2=_fmt(self.py(y1)),
                               stroke=color, stroke_width=width))

    def bar(self, x_lo, x_hi, height, color):
        x = self.px(x_lo)
        y = self.py(height)
        self.parts.append(_tag("rect", x=_fmt(x), y=_fmt(y), width=_fmt(self.px(x_hi) - x),
                               height=_fmt(self.py(self.ylim[0]) - y), fill=color, stroke="none"))


def _document(panels):
    """The SVG document of ``panels``, with a margin right of the rightmost
    panel and below the lowest, where 40 px more hold its axis labels."""
    width = max(panel.x0 for panel in panels) + _Panel.width + _MARGIN_X
    height = max(panel.y0 for panel in panels) + _Panel.height + _MARGIN_Y + 40
    body = "\n".join(part for panel in panels for part in panel.parts)
    background = _tag("rect", x=0, y=0, width=width, height=height, fill="#ffffff")
    return _tag("svg", f"\n{background}\n{body}\n", xmlns="http://www.w3.org/2000/svg",
                version="1.1", width=width, height=height,
                viewBox=f"0 0 {width} {height}") + "\n"


def _series_panel(rows, x0, y0):
    n = rows.shape[1]
    panel = _Panel(x0, y0, (1, n), (float(rows.min()), float(rows.max())),
                   f"{rows.shape[0]} series of length {n}", "time index", "value")
    t = np.arange(1, n + 1)
    for i, row in enumerate(rows):
        panel.polyline(t, row, _SERIES_COLORS[i % len(_SERIES_COLORS)])
    for row in rows:
        for x, y in zip(t, row):
            panel.circle(x, y, 1.6, "#55555588")
    return panel


def _intensity_panel(values, iv, x0, y0, mark_max=False):
    """Stems of ``values``, one row of the intensities in ``iv``."""
    freqs = iv.frequencies
    panel = _Panel(x0, y0, (0.0, float(freqs[-1]) if freqs.size > 1 else 0.5),
                   (0.0, float(values.max())), "intensity",
                   f"frequency (cycles per step, n={iv.series_len})", "intensity")
    for f, v in zip(freqs, values):
        panel.vline(f, 0.0, v, "#1f77b4")
    if mark_max and values.size > 1:
        k = 1 + int(np.argmax(values[1:]))
        panel.circle(freqs[k], values[k], 3.0, _MARK_COLOR)
    return panel


def _histogram_panel(result, x0, y0):
    null = result.null_sample
    lo = float(min(null.min(), result.statistic))
    hi = float(max(null.max(), result.statistic))
    bins = 40
    if np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0.0):
        # A span of a few ulps (n = 3 gives 1 up to rounding) cannot hold the
        # bins; plot it as the one value it is, which np.histogram widens.
        hi = lo
    counts, edges = np.histogram(null, bins=bins, range=(lo, hi))
    panel = _Panel(x0, y0, (lo, hi), (0.0, float(counts.max())),
                   f"permutation null (sims={result.sims}, p={result.p_value:.4g})",
                   "maximum scaled intensity", "count")
    for i, count in enumerate(counts):
        if count:
            panel.bar(edges[i], edges[i + 1], float(count), "#a6c8e0")
    panel.vline(result.statistic, 0.0, panel.ylim[1], _MARK_COLOR, width=2.0)
    return panel


def emit_plot(result, path) -> None:
    """Write an SVG rendering of ``result`` to ``path``.

    Accepts a series vector/matrix, an :class:`IntensityVector`, or a
    :class:`SpectrumTestResult` (intensity panel plus null histogram).
    """
    if isinstance(result, SpectrumTestResult):
        iv = result.intensity
        panels = [_intensity_panel(iv.values, iv, _MARGIN_X, _MARGIN_Y, mark_max=True),
                  _histogram_panel(result, _MARGIN_X * 2 + _Panel.width, _MARGIN_Y)]
    elif isinstance(result, IntensityVector):
        panels = [_intensity_panel(row, result, _MARGIN_X, _MARGIN_Y + i * (_Panel.height + 70))
                  for i, row in enumerate(np.atleast_2d(result.values))]
    else:
        arr = np.asarray(result, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise InvalidParamError(
                "emit_plot accepts a finite series vector or matrix, an "
                "IntensityVector, or a SpectrumTestResult"
            )
        panels = [_series_panel(arr, _MARGIN_X, _MARGIN_Y)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_document(panels))
