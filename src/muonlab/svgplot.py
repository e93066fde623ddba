"""Self-contained SVG emission for convergence curves and heatmaps.

No plotting dependency: identical inputs produce byte-identical SVG text,
which keeps figure output diffable in review.  The emitters return the text;
callers write it with ``experiments.write_text``.  Curves get a log-scaled y
axis; nonpositive values on a log axis are clamped to 1e-300 and flagged
with a warning annotation inside the file.
"""

from __future__ import annotations

import math

from .errors import PreconditionError

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)
_LOG_FLOOR = 1e-300


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def emit_svg_plot(series: dict[str, tuple], title: str = "", ylabel: str = "value") -> str:
    """Render named (xs, ys) series as polylines against the iteration on a
    log-scaled y axis and return the SVG text.

    ``series`` maps legend label -> (xs, ys).
    """
    if not series:
        raise PreconditionError("emit_svg_plot needs at least one series")
    clamped = False
    data = {}
    for name, (xs, ys) in series.items():
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys) or not xs:
            raise PreconditionError(f"series {name!r} must be nonempty with equal lengths")
        if any(v <= 0.0 for v in ys):
            clamped = True
            ys = [_LOG_FLOOR if v <= 0.0 else v for v in ys]
        data[name] = (xs, ys)

    xmin = min(min(xs) for xs, _ in data.values())
    xmax = max(max(xs) for xs, _ in data.values())
    ymin = min(min(ys) for _, ys in data.values())
    ymax = max(max(ys) for _, ys in data.values())
    ylo, yhi = math.floor(math.log10(ymin)), math.ceil(math.log10(ymax))
    if ylo == yhi:
        yhi = ylo + 1
    if xmin == xmax:
        xmax = xmin + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    xspan, yspan = xmax - xmin, yhi - ylo

    def sx(x: float) -> float:
        return _MARGIN_L + (x - xmin) / xspan * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (1.0 - (math.log10(y) - ylo) / yspan) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    # y ticks
    step = max(1, yspan // 6)
    for tick in range(ylo, yhi + 1, step):
        y = sy(10.0**tick)
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(y)}" x2="{_MARGIN_L}" y2="{_fmt(y)}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">1e{tick}</text>'
        )
    # x ticks
    for i in range(5):
        val = xmin + (xmax - xmin) * i / 4
        x = sx(val)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{val:.4g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">iteration</text>'
    )
    out.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">'
        f"{ylabel}</text>"
    )
    # series + legend
    for i, (name, (xs, ys)) in enumerate(data.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join([  # sx and sy inlined, as every point calls them
            f"{_MARGIN_L + (x - xmin) / xspan * plot_w:.3f},"
            f"{_MARGIN_T + (1.0 - (math.log10(y) - ylo) / yspan) * plot_h:.3f}"
            for x, y in zip(xs, ys)
        ])
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 18 * i
        lx = _WIDTH - _MARGIN_R + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">{name}</text>'
        )
    if clamped:
        out.append(
            f'<text x="{_MARGIN_L}" y="{_MARGIN_T - 6}" font-size="10" fill="#b00" '
            f'font-family="sans-serif">warning: nonpositive values clamped to 1e-300 '
            f"on log axis</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_svg_heatmap(matrix, title: str = "") -> str:
    """Render a matrix as a signed heatmap (blue negative, red positive).

    Cell colors are linear in value / max|value|; each cell also carries its
    value to 3 significant digits so small blocks stay readable.
    """
    rows = [[float(v) for v in row] for row in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != len(rows[0]) for r in rows):
        raise PreconditionError("heatmap needs a nonempty rectangular matrix")
    m = len(rows[0])
    vmax = max((abs(v) for r in rows for v in r), default=0.0)
    cell = max(18, min(48, 360 // max(n, m)))
    grid_w, grid_h = m * cell, n * cell
    width, height = grid_w + 80, grid_h + 70
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="22" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    x0, y0 = 40, 40
    for i in range(n):
        for j in range(m):
            v = rows[i][j]
            frac = 0.0 if vmax == 0.0 else v / vmax
            if frac >= 0:
                r, g, b = 255, int(round(255 * (1 - frac))), int(round(255 * (1 - frac)))
            else:
                r, g, b = int(round(255 * (1 + frac))), int(round(255 * (1 + frac))), 255
            out.append(
                f'<rect x="{x0 + j * cell}" y="{y0 + i * cell}" width="{cell}" '
                f'height="{cell}" fill="rgb({r},{g},{b})" stroke="#999" stroke-width="0.5"/>'
            )
            if cell >= 30:
                out.append(
                    f'<text x="{x0 + j * cell + cell // 2}" y="{y0 + i * cell + cell // 2 + 4}" '
                    f'text-anchor="middle" font-size="9" font-family="sans-serif">{v:.3g}</text>'
                )
    out.append(
        f'<text x="{x0}" y="{y0 + grid_h + 18}" font-size="10" font-family="sans-serif">'
        f"max|value| = {vmax:.6g}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
