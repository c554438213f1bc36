"""Hand-rolled SVG emission: polyline charts and histogram panels, no plotting dependency."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f66a8", "#c23b22", "#2c8c4a", "#8a56b0", "#c78a1f", "#4a4a4a")
W, H = 720, 440
MARGIN = 60


def _escape(text: str) -> str:
    """Text with &, < and > escaped for XML; xml.sax.saxutils would also import urllib, http.client and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) / span * (out_hi - out_lo)


def _axes(title, xlabel, ylabel, xlo, xhi, ylo, yhi):
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{MARGIN}" y1="{H-MARGIN}" x2="{W-MARGIN}" y2="{H-MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{H-MARGIN}" stroke="black"/>',
        f'<text x="{W/2:.0f}" y="{H-16}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{H/2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 18 {H/2:.0f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        xp = MARGIN + frac * (W - 2 * MARGIN)
        yp = H - MARGIN - frac * (H - 2 * MARGIN)
        parts.append(f'<text x="{xp:.1f}" y="{H-MARGIN+16}" text-anchor="middle" font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{MARGIN-6}" y="{yp:.1f}" text-anchor="end" font-size="10">{yv:.4g}</text>')
    return parts


def _write_chart(path, parts, px, curves, stroke_width):
    """Draw each (label, y pixels) curve over the x pixels `px` with its legend entry, then write the SVG."""
    for k, (label, py) in enumerate(curves):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        color = _COLORS[k % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{stroke_width}"/>')
        parts.append(
            f'<text x="{W-MARGIN+4}" y="{MARGIN+14*k}" font-size="11" fill="{color}" text-anchor="end">'
            f"{_escape(label)}</text>"
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(path, xs, series, title="", xlabel="", ylabel=""):
    """Write a polyline chart; `series` is a list of (label, y-array)."""
    xs = np.asarray(xs, dtype=float)
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo, yhi = float(ys_all.min()), float(ys_all.max())
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    curves = [(label, _scale(ys, ylo, yhi, H - MARGIN, MARGIN)) for label, ys in series]
    parts = _axes(title, xlabel, ylabel, xlo, xhi, ylo, yhi)
    _write_chart(path, parts, _scale(xs, xlo, xhi, MARGIN, W - MARGIN), curves, "1.6")


def histogram_panel(path, datasets, title="", xlabel=""):
    """Write outline histograms (40 bins) of several sample sets of simplex coordinates in [0, 1]."""
    lo, hi = 0.0, 1.0
    edges = np.linspace(lo, hi, 41)
    all_counts = [np.histogram(np.asarray(s, dtype=float), bins=edges, density=True)[0] for _, s in datasets]
    ymax = max(float(c.max()) for c in all_counts) or 1.0
    curves = [(label, _scale(c, 0.0, ymax, H - MARGIN, MARGIN)) for (label, _), c in zip(datasets, all_counts)]
    centers = 0.5 * (edges[:-1] + edges[1:])
    parts = _axes(title, xlabel, "density", lo, hi, 0.0, ymax)
    _write_chart(path, parts, _scale(centers, lo, hi, MARGIN, W - MARGIN), curves, "1.4")
