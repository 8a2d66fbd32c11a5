"""Deterministic SVG emission of figures and construction results.

Output is a pure function of the input: each point's coordinates are
integers in units of 10**-DIGITS that the point rounds once and keeps
(``Point.rounded``), the same integers the trace text writes, and each
circle's radius is rounded once, from intervals of its squared radius,
so drawing adjoins nothing to the tower.
The layout is integer numerators over one denominator per canvas (only
clipping takes rational parameters) and each SVG number is rounded once,
so the bytes are identical across runs and platforms.  The y axis is
flipped so figures appear in the usual orientation.  Only the SVG 1.1
elements line, circle, path and text are used.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Optional

from .errors import NothingToRender
from .geom import Angle, Circle, Figure, Line, Point, Ray, Segment, points
from .number import DIGITS, fixed_text, half_up
from .trace import PropositionResult

# role: (stroke attributes, point and label fill)
_STYLES = {
    "given": ('stroke="#202020" stroke-width="1.8" fill="none"', "#202020"),
    "aux": ('stroke="#9a9a9a" stroke-width="0.9" stroke-dasharray="4 3" '
            'fill="none"', "#9a9a9a"),
    "result": ('stroke="#1a5fb4" stroke-width="2.2" fill="none"', "#1a5fb4"),
}
_WIDTH = 640


def _model(obj) -> tuple[list, Optional[int], list]:
    """A drawable's points in model coordinates, a circle's radius (None
    for any other drawable) and the corners of its extent, each rounded
    once."""
    pts = [p.rounded for p in points(obj)]
    if not isinstance(obj, Circle):
        return pts, None, pts
    r = obj.radius_sq.scaled_sqrt(DIGITS)
    (cx, cy), = pts
    return pts, r, [(cx - r, cy - r), (cx + r, cy + r)]


class _Canvas:
    """The viewport, in twentieths of a model unit so that its margins (a
    twentieth of the span each side) are integral; a screen number is an
    integer numerator over the one denominator ``den``."""

    def __init__(self, xs, ys):
        def bounds(vs):
            lo, hi = min(vs), max(vs)
            span = hi - lo or 10 ** DIGITS
            return 20 * lo - span, 20 * hi + span

        self.min_x, self.max_x = bounds(xs)
        self.min_y, self.max_y = bounds(ys)
        self.den = self.max_x - self.min_x
        self.height = (self.max_y - self.min_y) * _WIDTH

    def to_screen(self, x, y) -> tuple:
        return ((20 * x - self.min_x) * _WIDTH, (self.max_y - 20 * y) * _WIDTH)

    def fmt(self, n) -> str:  # the screen number n / den, to two decimals
        return fixed_text(half_up(n, self.den, 2), 2)

    def clip(self, p, q, ray: bool) -> Optional[tuple]:
        """The part inside the viewport box of the line through p and q,
        or of the ray from p through q: the parameter interval [t0, t1]
        narrowed by each bound; None when p = q.

        p is in the extent and the margins are > 0, so p lies strictly
        inside the box: each bound's interval holds t = 0 inside it, and
        t0 < t1 always."""
        (x1, y1), (x2, y2) = p, q
        dx, dy = x2 - x1, y2 - y1
        if not (dx or dy):
            return None
        t0, t1 = (0 if ray else -inf), inf
        for lo, hi, origin, delta in ((self.min_x, self.max_x, x1, dx),
                                      (self.min_y, self.max_y, y1, dy)):
            if delta:
                a, b = sorted((Fraction(lo - 20 * origin, 20 * delta),
                               Fraction(hi - 20 * origin, 20 * delta)))
                t0, t1 = max(t0, a), min(t1, b)
        return (x1 + dx * t0, y1 + dy * t0), (x1 + dx * t1, y1 + dy * t1)


def render(named: dict[str, tuple[str, object]]) -> bytes:
    """Render named objects to SVG bytes (deterministic), each styled by
    its role: given, aux or result."""
    drawable = {name: (role, obj, *_model(obj))
                for name, (role, obj) in named.items()
                if isinstance(obj, (Point, Segment, Line, Ray, Circle,
                                    Figure, Angle))}
    if not drawable:
        raise NothingToRender("no drawable objects")

    extent = [corner for *_, corners in drawable.values() for corner in corners]
    canvas = _Canvas([x for x, _ in extent], [y for _, y in extent])
    _fmt, den = canvas.fmt, canvas.den

    body: list[str] = []
    labelled: list[tuple[int, int, str, str]] = []

    def emit_segment(p, q, stroke: str) -> None:
        (x1, y1) = canvas.to_screen(*p)
        (x2, y2) = canvas.to_screen(*q)
        body.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                    f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {stroke}/>')

    for name, (role, obj, pts, r, _) in drawable.items():
        stroke, fill = _STYLES[role]
        if isinstance(obj, Point):
            x, y = canvas.to_screen(*pts[0])
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
                        f'fill="{fill}" stroke="none"/>')
            labelled.append((x, y, name, fill))
        elif isinstance(obj, Segment):
            emit_segment(*pts, stroke)
        elif isinstance(obj, (Line, Ray)):
            got = canvas.clip(*pts, ray=isinstance(obj, Ray))
            if got:
                emit_segment(*got, stroke)
        elif isinstance(obj, Circle):
            cx, cy = canvas.to_screen(*pts[0])
            body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                        f'r="{_fmt(r * 20 * _WIDTH)}" {stroke}/>')
        elif isinstance(obj, Figure):
            screen = [canvas.to_screen(*p) for p in pts]
            path = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in screen) + " Z"
            body.append(f'<path d="{path}" {stroke}/>')
        elif isinstance(obj, Angle):
            vertex, arm1, arm2 = pts
            emit_segment(vertex, arm1, stroke)
            emit_segment(vertex, arm2, stroke)

    placed: list[tuple[int, int]] = []
    # northeast of the point, shifted clockwise on collision
    offsets = ((6, -6), (6, 12), (-14, 12), (-14, -6))
    min_gap = 14 * den
    for x, y, name, fill in labelled:
        for dx, dy in offsets:
            ax, ay = x + dx * den, y + dy * den
            if all(abs(ax - px) > min_gap or abs(ay - py) > min_gap
                   for px, py in placed):
                break
        placed.append((ax, ay))
        body.append(f'<text x="{_fmt(ax)}" y="{_fmt(ay)}" '
                    f'font-family="serif" font-size="14" '
                    f'fill="{fill}">{_escape(name)}</text>')

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(_WIDTH * den)}" height="{_fmt(canvas.height)}" '
            f'viewBox="0 0 {_fmt(_WIDTH * den)} {_fmt(canvas.height)}">')
    doc = "\n".join([head, *body, "</svg>"]) + "\n"
    return doc.encode("utf-8")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_result(result: PropositionResult) -> bytes:
    """Render a proposition's named objects with role-based styling.

    Top-level construction steps contribute their circles and drawn lines
    as auxiliary objects, so the figure shows how the result was produced.
    """
    named = dict(result.named)
    known = {id(obj) for _, obj in named.values()}
    for n, step in enumerate(result.trace.steps, start=1):
        for oid in step.produced:
            obj = result.trace.registry.get(oid)
            if id(obj) not in known and isinstance(obj, (Circle, Segment,
                                                         Line, Ray)):
                named[f"_step{n}_{oid}"] = ("aux", obj)
                known.add(id(obj))
    return render(named)
