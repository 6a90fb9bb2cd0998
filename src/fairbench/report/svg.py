"""Standalone dual-axis sweep plots as deterministic SVG.

Five side-by-side panels (SPD, DI, EOD, AOD, Theil), each plotting balanced
accuracy on the left axis (blue) and the fairness metric on the right axis
(red) against the threshold, with a vertical marker at the selected optimal
threshold. Undefined points leave a visible gap. Identical inputs produce
byte-identical output; no external resources are referenced.
"""

from ..metrics.classification import FAIRNESS_FIELDS, undefined
from ..pipeline.sweep import SweepResult, default_grid
from .tables import write_text

_PANEL_W = 300
_PANEL_H = 240
_MARGIN = 46
_TOP = 42
_BOTTOM = 36
_BLUE = "#1f4e9c"
_RED = "#c0392b"


def _num(x):
    return f"{x:.2f}"


def _segments(xs, values, y_of):
    """Polyline point strings at the formatted x coordinates `xs`, split where a value is undefined (the gap rule)."""
    segments, current = [], []
    for x, v in zip(xs, values):
        if not undefined(v):
            current.append(f"{x},{_num(y_of(v))}")
        elif current:
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments


def _panel(out, index, title, attr, table, optimal_t):
    x0 = index * _PANEL_W + _MARGIN
    x1 = (index + 1) * _PANEL_W - _MARGIN // 2
    y0 = _TOP
    y1 = _PANEL_H - _BOTTOM
    t_lo, *_, t_hi = default_grid()

    def x_of(t):
        return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    finite_vals = [v for v in getattr(table, attr) if not undefined(v)]
    lo = min(finite_vals) if finite_vals else -1.0
    hi = max(finite_vals) if finite_vals else 1.0
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5

    def y_acc(v):
        return y1 - v * (y1 - y0)

    def y_fair(v):
        return y1 - (v - lo) / (hi - lo) * (y1 - y0)

    out.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="none" stroke="#888"/>')
    out.append(f'<text x="{(x0 + x1) // 2}" y="{y0 - 8}" text-anchor="middle" font-size="13">{title}</text>')
    # axis ticks
    for t in (t_lo, 0.5, t_hi):
        out.append(f'<text x="{_num(x_of(t))}" y="{y1 + 14}" text-anchor="middle" font-size="9">{t:g}</text>')
    for v in (0.0, 0.5, 1.0):
        out.append(
            f'<text x="{x0 - 4}" y="{_num(y_acc(v) + 3)}" text-anchor="end" font-size="9" fill="{_BLUE}">{v:g}</text>'
        )
    for v in (lo, hi):
        out.append(
            f'<text x="{x1 + 4}" y="{_num(y_fair(v) + 3)}" text-anchor="start" font-size="9" fill="{_RED}">{v:.3g}</text>'
        )
    # optimal threshold marker
    out.append(
        f'<line x1="{_num(x_of(optimal_t))}" y1="{y0}" x2="{_num(x_of(optimal_t))}" y2="{y1}" '
        f'stroke="#555" stroke-dasharray="4,3"/>'
    )
    out.append(
        f'<text x="{_num(x_of(optimal_t))}" y="{y1 + 26}" text-anchor="middle" font-size="9">t*={optimal_t:.2f}</text>'
    )
    xs = [_num(x_of(t)) for t in table.thresholds]
    for column, y_of, color, cls in (("balanced_accuracy", y_acc, _BLUE, "accuracy"),
                                     (attr, y_fair, _RED, "fairness")):
        for seg in _segments(xs, getattr(table, column), y_of):
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}" class="{cls}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.2" class="{cls}"/>'
                )


def render_sweep_svg(result: SweepResult) -> str:
    """Render one arm's test-split sweep; returns the SVG document as a string."""
    width = _PANEL_W * len(FAIRNESS_FIELDS)
    height = _PANEL_H + 28
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<text x="8" y="16" font-size="13">{result.arm} (test split)</text>',
        f'<text x="8" y="{_PANEL_H + 16}" font-size="11" fill="{_BLUE}">balanced accuracy (left axis)</text>',
        f'<text x="240" y="{_PANEL_H + 16}" font-size="11" fill="{_RED}">fairness metric (right axis)</text>',
    ]
    for i, (title, attr) in enumerate(FAIRNESS_FIELDS.items()):
        _panel(out, i, title, attr, result.test, result.optimal_threshold)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_sweep_svg(result: SweepResult, path):
    return write_text(render_sweep_svg(result), path)
