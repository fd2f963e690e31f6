"""Self-contained SVG log-log charts: points, error bars, fitted line, slope label.

No plotting dependency: experiments must render on any machine that can write
a text file.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55


def _ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(lo)
    hi_e = math.ceil(hi)
    step = max(1, int(round((hi_e - lo_e) / 6)) or 1)
    return [float(e) for e in range(int(lo_e), int(hi_e) + 1, step)]


def write_loglog_svg(path, xs, ys, yerrs, slope: float, intercept: float,
                     slope_stderr: float, title: str = "", ylabel: str = "value") -> None:
    """Render log10-log10 data against delta with error bars and a fitted line."""
    # (log x, log y, log lower bar end, log upper bar end) per positive point
    pts = [(math.log10(x), math.log10(y), math.log10(max(y - e, y * 1e-3)), math.log10(y + e))
           for x, y, e in zip(xs, ys, yerrs) if y > 0]
    if not pts:
        raise ValueError("nothing positive to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[2] for p in pts)
    y_hi = max(p[3] for p in pts)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0
    pad_x = 0.06 * (x_hi - x_lo)
    pad_y = 0.10 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px(t):.1f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">1e{int(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py(t):.1f}" x2="{MARGIN_L}" '
            f'y2="{py(t):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py(t) + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">1e{int(t)}</text>'
        )
    parts.append(
        f'<text x="{(WIDTH + MARGIN_L - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">log10 delta</text>'
    )
    parts.append(
        f'<text x="16" y="{(HEIGHT + MARGIN_T - MARGIN_B) / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(HEIGHT + MARGIN_T - MARGIN_B) / 2:.1f})">log10 {ylabel}</text>'
    )
    # fitted line; the slope is base-invariant, the natural-log intercept rescales
    b10 = intercept / math.log(10.0)
    xa, xb = x_lo + pad_x * 0.2, x_hi - pad_x * 0.2
    parts.append(
        f'<line x1="{px(xa):.1f}" y1="{py(slope * xa + b10):.1f}" '
        f'x2="{px(xb):.1f}" y2="{py(slope * xb + b10):.1f}" '
        f'stroke="#c81e1e" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="13" fill="#c81e1e">'
        f'slope = {slope:.3f} &#177; {slope_stderr:.3f}</text>'
    )
    # error bars and points
    for lx, _, lo, hi in pts:
        parts.append(
            f'<line x1="{px(lx):.1f}" y1="{py(lo):.1f}" x2="{px(lx):.1f}" y2="{py(hi):.1f}" '
            f'stroke="#1d4ed8"/>'
        )
    for lx, ly, _, _ in pts:
        parts.append(
            f'<circle cx="{px(lx):.1f}" cy="{py(ly):.1f}" r="3.5" fill="#1d4ed8"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


def write_fit_svg(path, fit, title: str) -> None:
    """Chart an ExponentFit: trusted volumes with error bars and the fitted line."""
    pts = [(d, p.volume, p.stderr) for d, p in zip(fit.deltas, fit.points) if p.trusted]
    _write_fitted_svg(path, pts, fit, title, "volume")


def write_scan_svg(path, scan, title: str) -> None:
    """Chart a RatioScan: trusted ratios with error bars and the fitted line."""
    pts = [(d, e.ratio, e.stderr) for d, e in zip(scan.deltas, scan.estimates) if e.trusted]
    _write_fitted_svg(path, pts, scan, title, "ratio")


def _write_fitted_svg(path, pts, result, title: str, ylabel: str) -> None:
    xs, ys, es = zip(*pts)
    write_loglog_svg(path, xs, ys, es, result.slope, result.intercept, result.slope_stderr,
                     title=title, ylabel=ylabel)
