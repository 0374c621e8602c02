"""Tiny self-contained SVG line plots (no plotting dependency).

Only what the benchmark needs: a titled log-y plot of one curve per
solver with decade gridlines and a legend.
"""

import math
from xml.sax.saxutils import escape

__all__ = ["write_line_plot"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#17becf", "#bcbd22",
]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 160, 40, 50


def _decades(lo, hi):
    first = math.floor(lo)
    last = math.ceil(hi)
    step = max(1, (last - first) // 10)
    return list(range(first, last + 1, step))


def write_line_plot(path, title, series):
    """Write a log-y plot of suboptimality against epoch.

    ``series`` is a list of ``(name, xs, ys)``; nonpositive ``ys`` are
    dropped from the curve (they cannot be drawn on a log axis) but the
    name still appears in the legend.
    """
    pts = []
    for name, xs, ys in series:
        kept = [(x, y) for x, y in zip(xs, ys) if y > 0.0]
        pts.append((name, kept))

    xs_all = [x for _, kept in pts for x, _ in kept]
    ys_all = [y for _, kept in pts for _, y in kept]
    x0, x1 = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    if x1 == x0:
        x1 = x0 + 1.0
    if ys_all:
        ly0, ly1 = math.log10(min(ys_all)), math.log10(max(ys_all))
    else:
        ly0, ly1 = -1.0, 1.0
    if ly1 - ly0 < 1e-9:
        ly0, ly1 = ly0 - 1.0, ly1 + 1.0

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        ly = math.log10(y)
        return _MT + (1.0 - (ly - ly0) / (ly1 - ly0)) * ph

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
               f'height="{_H}" viewBox="0 0 {_W} {_H}">')
    out.append(f'<title>{escape(title)}</title>')
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>')
    out.append(f'<text x="{_ML}" y="24" font-size="15" '
               f'font-family="sans-serif">{escape(title)}</text>')

    # frame
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#333" stroke-width="1"/>')

    for d in _decades(ly0, ly1):
        if not ly0 <= d <= ly1:
            continue
        y = _MT + (1.0 - (d - ly0) / (ly1 - ly0)) * ph
        out.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + pw}" '
                   f'y2="{y:.2f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="11" '
                   f'font-family="sans-serif" text-anchor="end">1e{d}</text>')

    n_xticks = 5
    for i in range(n_xticks + 1):
        x = x0 + (x1 - x0) * i / n_xticks
        xp = px(x)
        out.append(f'<line x1="{xp:.2f}" y1="{_MT + ph}" x2="{xp:.2f}" '
                   f'y2="{_MT + ph + 5}" stroke="#333" stroke-width="1"/>')
        out.append(f'<text x="{xp:.2f}" y="{_MT + ph + 18}" font-size="11" '
                   f'font-family="sans-serif" text-anchor="middle">'
                   f'{x:.6g}</text>')

    out.append(f'<text x="{_ML + pw / 2:.2f}" y="{_H - 12}" font-size="12" '
               'font-family="sans-serif" text-anchor="middle">epoch</text>')
    out.append(f'<text x="18" y="{_MT + ph / 2:.2f}" font-size="12" '
               f'font-family="sans-serif" text-anchor="middle" '
               f'transform="rotate(-90 18 {_MT + ph / 2:.2f})">'
               'suboptimality</text>')

    for i, (name, kept) in enumerate(pts):
        color = _PALETTE[i % len(_PALETTE)]
        if kept:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in kept)
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.5" points="{coords}"/>')
        ly = _MT + 14 + 18 * i
        lx = _ML + pw + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="12" '
                   f'font-family="sans-serif">{escape(name)}</text>')

    out.append('</svg>')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
