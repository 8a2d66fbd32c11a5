"""Deterministic SVG emission of figures and construction results.

Output is a pure function of the input: coordinates pass through the exact
decimal approximation (six digits) and all layout arithmetic is done in
rational numbers, so the bytes are identical across runs and platforms.
The y axis is flipped so figures appear in the usual orientation.  Only
the SVG 1.1 elements line, circle, path and text are used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import NothingToRender
from .geom import Angle, Circle, Figure, Line, Point, Ray, Segment, points
from .number import Constructible, sqrt_nonneg
from .trace import PropositionResult

_STYLES = {
    "given": 'stroke="#202020" stroke-width="1.8" fill="none"',
    "aux": 'stroke="#9a9a9a" stroke-width="0.9" stroke-dasharray="4 3" fill="none"',
    "result": 'stroke="#1a5fb4" stroke-width="2.2" fill="none"',
}
_POINT_FILL = {"given": "#202020", "aux": "#9a9a9a", "result": "#1a5fb4"}
_DIGITS = 6
_WIDTH = Fraction(640)


def _fr(value: Constructible) -> Fraction:
    return Fraction(value.approx(_DIGITS))


def _fmt(x: Fraction) -> str:
    scaled = x * 100
    n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if n < 0 else ""
    text = str(abs(n)).rjust(3, "0")
    return f"{sign}{text[:-2]}.{text[-2:]}"


def _xy(p: Point) -> tuple[Fraction, Fraction]:
    return _fr(p.x), _fr(p.y)


def _object_extent(obj) -> list[tuple[Fraction, Fraction]]:
    if isinstance(obj, Circle):
        cx, cy = _xy(obj.center)
        r = _fr(sqrt_nonneg(obj.radius_sq))
        return [(cx - r, cy - r), (cx + r, cy + r)]
    return [_xy(p) for p in points(obj)]


class _Canvas:
    def __init__(self, xs, ys):
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span_x = max_x - min_x or Fraction(1)
        span_y = max_y - min_y or Fraction(1)
        margin_x = span_x * Fraction(1, 20)
        margin_y = span_y * Fraction(1, 20)
        self.min_x = min_x - margin_x
        self.max_x = max_x + margin_x
        self.min_y = min_y - margin_y
        self.max_y = max_y + margin_y
        self.width = _WIDTH
        self.scale = _WIDTH / (self.max_x - self.min_x)
        self.height = (self.max_y - self.min_y) * self.scale

    def to_screen(self, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return ((x - self.min_x) * self.scale,
                (self.max_y - y) * self.scale)

    def clip_line(self, p, q) -> Optional[tuple]:
        """Intersection of the infinite line p-q with the viewport box."""
        x1, y1 = p
        x2, y2 = q
        dx, dy = x2 - x1, y2 - y1
        ts = []
        for bound, origin, delta in ((self.min_x, x1, dx), (self.max_x, x1, dx),
                                     (self.min_y, y1, dy), (self.max_y, y1, dy)):
            if delta != 0:
                ts.append((bound - origin) / delta)
        hits = []
        for t in sorted(set(ts)):
            x, y = x1 + dx * t, y1 + dy * t
            if self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y:
                hits.append((x, y))
        if len(hits) < 2:
            return None
        return hits[0], hits[-1]

    def clip_ray(self, origin, through) -> Optional[tuple]:
        got = self.clip_line(origin, through)
        if got is None:
            return None
        dx = through[0] - origin[0]
        dy = through[1] - origin[1]
        ends = [origin]
        for pt in got:
            if (pt[0] - origin[0]) * dx + (pt[1] - origin[1]) * dy >= 0:
                ends.append(pt)
        far = max(ends, key=lambda pt: (pt[0] - origin[0]) * dx
                  + (pt[1] - origin[1]) * dy)
        return origin, far


def render(named: dict[str, tuple[str, object]]) -> bytes:
    """Render named objects to SVG bytes (deterministic), each styled by
    its role: given, aux or result."""
    drawable = {name: (role, obj) for name, (role, obj) in named.items()
                if isinstance(obj, (Point, Segment, Line, Ray, Circle,
                                    Figure, Angle))}
    if not drawable:
        raise NothingToRender("no drawable objects")

    extent = []
    for _, obj in drawable.values():
        extent.extend(_object_extent(obj))
    xs = [e[0] for e in extent]
    ys = [e[1] for e in extent]
    canvas = _Canvas(xs, ys)

    body: list[str] = []
    labelled: list[tuple[Fraction, Fraction, str, str]] = []

    def emit_segment(p, q, style: str) -> None:
        (x1, y1) = canvas.to_screen(*p)
        (x2, y2) = canvas.to_screen(*q)
        body.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                    f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {_STYLES[style]}/>')

    for name, (style, obj) in drawable.items():
        if isinstance(obj, Point):
            x, y = canvas.to_screen(*_xy(obj))
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
                        f'fill="{_POINT_FILL[style]}" stroke="none"/>')
            labelled.append((x, y, name, style))
        elif isinstance(obj, Segment):
            emit_segment(_xy(obj.a), _xy(obj.b), style)
        elif isinstance(obj, (Line, Ray)):
            clip = canvas.clip_line if isinstance(obj, Line) else canvas.clip_ray
            got = clip(*(_xy(p) for p in points(obj)))
            if got:
                emit_segment(*got, style)
        elif isinstance(obj, Circle):
            cx, cy = canvas.to_screen(*_xy(obj.center))
            r = _fr(sqrt_nonneg(obj.radius_sq)) * canvas.scale
            body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                        f'r="{_fmt(r)}" {_STYLES[style]}/>')
        elif isinstance(obj, Figure):
            pts = [canvas.to_screen(*_xy(v)) for v in obj.vertices]
            path = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts) + " Z"
            body.append(f'<path d="{path}" {_STYLES[style]}/>')
        elif isinstance(obj, Angle):
            vertex = _xy(obj.vertex)
            emit_segment(vertex, _xy(obj.arm1), style)
            emit_segment(vertex, _xy(obj.arm2), style)

    placed: list[tuple[Fraction, Fraction]] = []
    # northeast of the point, shifted clockwise on collision
    offsets = ((6, -6), (6, 12), (-14, 12), (-14, -6))
    min_gap = Fraction(14)
    for x, y, name, style in labelled:
        for dx, dy in offsets:
            ax, ay = x + dx, y + dy
            if all(abs(ax - px) > min_gap or abs(ay - py) > min_gap
                   for px, py in placed):
                break
        placed.append((ax, ay))
        body.append(f'<text x="{_fmt(ax)}" y="{_fmt(ay)}" '
                    f'font-family="serif" font-size="14" '
                    f'fill="{_POINT_FILL[style]}">{_escape(name)}</text>')

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" '
            f'viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">')
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
