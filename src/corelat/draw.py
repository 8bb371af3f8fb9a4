"""Deterministic SVG pictures of rank-2 coroot lattices and b-regions.

The drawing shows the coroot lattice near the region, every affine
hyperplane (alcove wall) crossing the view, the region boundary, and each
lattice point of the region labeled with its total size.  Output is a pure
function of the input (fixed float formatting), so files are reproducible
byte for byte.
"""

from __future__ import annotations

import math

from . import sommers
from .rootsys import RootSystemData


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def region_svg(rs: RootSystemData, b: int) -> str:
    """SVG of the b-region of a rank-2 system."""
    if rs.rank != 2:
        raise ValueError(f"drawing requires rank 2, got {rs.cartan_type}")
    scale = 60.0  # pixels per unit length
    # orthonormal-frame images of the simple coroots, from the Gram matrix
    g = rs.gram_coroot
    g11, g12, g22 = float(g[0][0]), float(g[0][1]), float(g[1][1])
    v1 = (math.sqrt(g11), 0.0)
    v2 = (g12 / math.sqrt(g11), math.sqrt(g22 - g12 * g12 / g11))
    det = v1[0] * v2[1] - v2[0] * v1[1]
    inv = (v2[1] / det, -v2[0] / det, -v1[1] / det, v1[0] / det)

    def plane(k) -> tuple[float, float]:
        return float(k[0]) * v1[0] + float(k[1]) * v2[0], float(k[0]) * v1[1] + float(k[1]) * v2[1]

    verts = [plane(v) for v in sommers.region_vertices(rs, b)]
    margin = 1.2
    xs, ys = zip(*verts)
    x_lo, x_hi = min(xs) - margin, max(xs) + margin
    y_lo, y_hi = min(ys) - margin, max(ys) + margin

    def to_screen(p):
        return (scale * (p[0] - x_lo), scale * (y_hi - p[1]))

    lines: list[str] = []
    width, height = scale * (x_hi - x_lo), scale * (y_hi - y_lo)

    # the lattice coordinates of the view's corners
    corners = [(inv[0] * cx + inv[1] * cy, inv[2] * cx + inv[3] * cy)
               for cx, cy in [(x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi)]]

    # affine hyperplanes <x, alpha> = k crossing the view
    for root in rs.positive_roots:
        vals = [ka * root.pair_vec[0] + kb * root.pair_vec[1] for ka, kb in corners]
        for k in range(math.floor(min(vals)), math.ceil(max(vals)) + 1):
            seg = _clip_line(root.pair_vec, k, inv, (x_lo, y_lo, x_hi, y_hi))
            if seg:
                (ax, ay), (bx, by) = (to_screen(seg[0]), to_screen(seg[1]))
                lines.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                             f'stroke="#bbbbbb" stroke-width="{_fmt(scale * 0.012)}"/>')

    # the region boundary
    pts = " ".join(f"{_fmt(to_screen(p)[0])},{_fmt(to_screen(p)[1])}" for p in verts)
    lines.append(f'<polygon points="{pts}" fill="none" stroke="#202020" '
                 f'stroke-width="{_fmt(scale * 0.035)}"/>')

    # lattice points: all coroot points in view, region points marked and labeled
    core = sommers.enumerate_cores(rs, b)
    sizes = dict(zip(core.points, core.sizes))
    ka_range, kb_range = (range(math.floor(min(c)) - 1, math.ceil(max(c)) + 2) for c in zip(*corners))
    for ka in ka_range:
        for kb in kb_range:
            px, py = plane((ka, kb))
            if not (x_lo <= px <= x_hi and y_lo <= py <= y_hi):
                continue
            sx, sy = to_screen((px, py))
            at = f'cx="{_fmt(sx)}" cy="{_fmt(sy)}"'
            if (ka, kb) in sizes:
                lines.append(f'<circle {at} r="{_fmt(scale * 0.09)}" fill="#c03020"/>')
                lines.append(f'<text x="{_fmt(sx)}" y="{_fmt(sy - scale * 0.14)}" font-size="{_fmt(scale * 0.2)}" '
                             f'font-family="monospace" text-anchor="middle">{sizes[ka, kb]}</text>')
            else:
                lines.append(f'<circle {at} r="{_fmt(scale * 0.05)}" fill="#404040"/>')

    body = "\n".join(lines)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n{body}\n</svg>\n')


def _clip_line(pair_vec, k, inv, box):
    """Clip the line {<x, alpha> = k} to the view box; returns a segment or None.

    The pairing at plane point (x, y) is linear: p(x, y) = u*x + v*y.
    """
    a, b, c, d = inv
    u = pair_vec[0] * a + pair_vec[1] * c
    v = pair_vec[0] * b + pair_vec[1] * d
    x_lo, y_lo, x_hi, y_hi = box
    pts = []
    eps = 1e-9
    if abs(v) > eps:
        for x in (x_lo, x_hi):
            y = (k - u * x) / v
            if y_lo - eps <= y <= y_hi + eps:
                pts.append((x, y))
    if abs(u) > eps:
        for y in (y_lo, y_hi):
            x = (k - v * y) / u
            if x_lo - eps <= x <= x_hi + eps:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-6 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]
