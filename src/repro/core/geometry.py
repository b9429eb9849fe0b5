"""Integer-grid geometry primitives.

Everything in the generator lives on an integer grid (the paper's module
format requires coordinates divisible by 10; one grid unit here stands for
ten paper units).  Modules are axis-aligned rectangles, terminals are grid
points on module perimeters and net paths are rectilinear polylines whose
vertices are grid points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence


class Orientation(enum.Enum):
    """Axis of a segment: horizontal (constant y) or vertical (constant x)."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"

    @property
    def perpendicular(self) -> "Orientation":
        if self is Orientation.HORIZONTAL:
            return Orientation.VERTICAL
        return Orientation.HORIZONTAL


class Side(enum.Enum):
    """Side of a module a terminal sits on (paper: left/right/up/down)."""

    LEFT = "left"
    RIGHT = "right"
    UP = "up"
    DOWN = "down"

    @property
    def opposite(self) -> "Side":
        return _OPPOSITE_SIDE[self]

    @property
    def outward(self) -> "Direction":
        """Direction pointing away from the module across this side."""
        return Direction[self.name]


class Direction(enum.Enum):
    """Unit step direction on the grid."""

    LEFT = (-1, 0)
    RIGHT = (1, 0)
    UP = (0, 1)
    DOWN = (0, -1)

    @property
    def dx(self) -> int:
        return self.value[0]

    @property
    def dy(self) -> int:
        return self.value[1]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE_DIR[self]

    @property
    def orientation(self) -> Orientation:
        """Orientation of a segment drawn while moving in this direction."""
        if self.dy == 0:
            return Orientation.HORIZONTAL
        return Orientation.VERTICAL

    @property
    def perpendiculars(self) -> tuple["Direction", "Direction"]:
        if self.orientation is Orientation.HORIZONTAL:
            return (Direction.UP, Direction.DOWN)
        return (Direction.LEFT, Direction.RIGHT)


_OPPOSITE_SIDE = {
    Side.LEFT: Side.RIGHT,
    Side.RIGHT: Side.LEFT,
    Side.UP: Side.DOWN,
    Side.DOWN: Side.UP,
}

_OPPOSITE_DIR = {
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
}


class Point(NamedTuple):
    """A grid point."""

    x: int
    y: int

    def step(self, direction: Direction, amount: int = 1) -> "Point":
        return Point(self.x + direction.dx * amount, self.y + direction.dy * amount)

    def manhattan(self, other: "Point") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with integer lower-left corner and size.

    A ``Rect`` covers the closed range ``[x, x+w] x [y, y+h]`` of grid
    coordinates; two rects that merely share a border are considered
    touching, not overlapping.
    """

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative rect size: {self.w}x{self.h}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def lower_left(self) -> Point:
        return Point(self.x, self.y)

    @property
    def upper_right(self) -> Point:
        return Point(self.x2, self.y2)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains(self, p: Point, *, strict: bool = False) -> bool:
        """Whether ``p`` is inside the rect (``strict`` excludes the border)."""
        if strict:
            return self.x < p.x < self.x2 and self.y < p.y < self.y2
        return self.x <= p.x <= self.x2 and self.y <= p.y <= self.y2

    def overlaps(self, other: "Rect", *, touching_ok: bool = True) -> bool:
        """Whether the two rects overlap with positive area.

        With ``touching_ok=False`` rects that share a border (or corner)
        also count as overlapping.
        """
        if touching_ok:
            return (
                self.x < other.x2
                and other.x < self.x2
                and self.y < other.y2
                and other.y < self.y2
            )
        return (
            self.x <= other.x2
            and other.x <= self.x2
            and self.y <= other.y2
            and other.y <= self.y2
        )

    def expand(self, margin: int) -> "Rect":
        return Rect(self.x - margin, self.y - margin, self.w + 2 * margin, self.h + 2 * margin)

    def translate(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def union(self, other: "Rect") -> "Rect":
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        return Rect(x, y, max(self.x2, other.x2) - x, max(self.y2, other.y2) - y)

    def side_of(self, p: Point) -> Side | None:
        """Which side of the rect's border ``p`` lies on (corners prefer
        left/right, matching the paper's ``side`` function), or ``None``."""
        if p.x == self.x and self.y <= p.y <= self.y2:
            return Side.LEFT
        if p.x == self.x2 and self.y <= p.y <= self.y2:
            return Side.RIGHT
        if p.y == self.y2 and self.x < p.x < self.x2:
            return Side.UP
        if p.y == self.y and self.x < p.x < self.x2:
            return Side.DOWN
        return None


def bounding_rect(rects: Iterable[Rect]) -> Rect:
    """Smallest rect enclosing all ``rects`` (which must be non-empty)."""
    rects = list(rects)
    if not rects:
        raise ValueError("bounding_rect of no rectangles")
    out = rects[0]
    for r in rects[1:]:
        out = out.union(r)
    return out


@dataclass(frozen=True)
class Segment:
    """An axis-aligned grid segment (possibly a single point).

    ``index`` is the fixed coordinate (y for horizontal, x for vertical),
    ``lo``/``hi`` the inclusive varying range.
    """

    orientation: Orientation
    index: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"segment range reversed: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def p1(self) -> Point:
        if self.orientation is Orientation.HORIZONTAL:
            return Point(self.lo, self.index)
        return Point(self.index, self.lo)

    @property
    def p2(self) -> Point:
        if self.orientation is Orientation.HORIZONTAL:
            return Point(self.hi, self.index)
        return Point(self.index, self.hi)

    def contains_point(self, p: Point) -> bool:
        if self.orientation is Orientation.HORIZONTAL:
            return p.y == self.index and self.lo <= p.x <= self.hi
        return p.x == self.index and self.lo <= p.y <= self.hi

    def points(self) -> Iterator[Point]:
        for v in range(self.lo, self.hi + 1):
            if self.orientation is Orientation.HORIZONTAL:
                yield Point(v, self.index)
            else:
                yield Point(self.index, v)

    def crosses(self, other: "Segment") -> Point | None:
        """Interior crossing point of two perpendicular segments, if any."""
        if self.orientation is other.orientation:
            return None
        if other.lo <= self.index <= other.hi and self.lo <= other.index <= self.hi:
            if self.orientation is Orientation.HORIZONTAL:
                return Point(other.index, self.index)
            return Point(self.index, other.index)
        return None

    @staticmethod
    def between(a: Point, b: Point) -> "Segment":
        """Segment connecting two points on a common grid line."""
        if a.y == b.y:
            return Segment(Orientation.HORIZONTAL, a.y, min(a.x, b.x), max(a.x, b.x))
        if a.x == b.x:
            return Segment(Orientation.VERTICAL, a.x, min(a.y, b.y), max(a.y, b.y))
        raise ValueError(f"points {a} and {b} are not axis-aligned")


# ---------------------------------------------------------------------------
# Rectilinear path helpers.  A path is a sequence of vertices; consecutive
# vertices must share a coordinate.


def normalize_path(path: Sequence[Point]) -> list[Point]:
    """Drop duplicate and collinear intermediate vertices from a path.

    Only vertices continuing in the *same* direction are merged; a
    doubling-back vertex (degenerate but possible in hand-made paths) is
    kept so length and bend counts are preserved.
    """
    out: list[Point] = []
    for p in path:
        if out and p == out[-1]:
            continue
        if len(out) >= 2:
            a, b = out[-2], out[-1]
            same_axis = (a.x == b.x == p.x) or (a.y == b.y == p.y)
            if same_axis:
                keeps_direction = (
                    (p.x - b.x) * (b.x - a.x) > 0 or (p.y - b.y) * (b.y - a.y) > 0
                )
                if keeps_direction:
                    out[-1] = p
                    continue
        out.append(p)
    return out


def path_segments(path: Sequence[Point]) -> list[Segment]:
    """The axis-aligned segments making up a path."""
    return [Segment.between(a, b) for a, b in zip(path, path[1:]) if a != b]


def path_length(path: Sequence[Point]) -> int:
    return sum(a.manhattan(b) for a, b in zip(path, path[1:]))


def path_bends(path: Sequence[Point]) -> int:
    """Number of direction changes along a path."""
    norm = normalize_path(path)
    return max(0, len(norm) - 2)


#: The arms of a wire at a point are the directions in which it leaves
#: the point, one bit each: ``(bit, dx, dy)`` of LEFT, RIGHT, UP, DOWN.
ARMS = ((1, -1, 0), (2, 1, 0), (4, 0, 1), (8, 0, -1))
HORIZONTAL_ARMS = 1 | 2
VERTICAL_ARMS = 4 | 8


def net_geometry(paths: Iterable[Sequence[Point]]) -> tuple[dict[Point, int], set[Point]]:
    """One net's routed geometry: every point its paths cover, with the
    wire's arms there (a mask of :data:`ARMS` bits, 0 at a single-point
    path), and its nodes, the path vertices where it ends, bends or
    branches.

    The arms give the wire's orientations at a point, its branch degree
    (three or more arms) and its adjacency: the wire joins a point to
    the neighbour each arm points at.  This is also the obstacle model
    of section 5.6.2: another net may cross a covered point at right
    angles, but never overlap the wire or pass a node.
    """
    arms: dict[Point, int] = {}
    nodes: set[Point] = set()
    get = arms.get
    for path in paths:
        nodes.update(path)
        if len(path) == 1:
            arms.setdefault(path[0], 0)
        for a, b in zip(path, path[1:]):
            # A segment's points from its low end: the wire leaves the low
            # end toward the high one, the high end back, and the points
            # between both ways.
            if a == b:
                continue
            if a.y == b.y:
                line = [Point(x, a.y) for x in range(min(a.x, b.x), max(a.x, b.x) + 1)]
                from_low, from_high = 2, 1  # RIGHT, LEFT
            elif a.x == b.x:
                line = [Point(a.x, y) for y in range(min(a.y, b.y), max(a.y, b.y) + 1)]
                from_low, from_high = 4, 8  # UP, DOWN
            else:
                raise ValueError(f"points {a} and {b} are not axis-aligned")
            low, high = line[0], line[-1]
            arms[low] = get(low, 0) | from_low
            arms[high] = get(high, 0) | from_high
            for p in line[1:-1]:
                arms[p] = get(p, 0) | from_low | from_high
    return arms, nodes


def path_points(path: Sequence[Point]) -> Iterator[Point]:
    """Every grid point covered by the path, in order (vertices included
    once at segment joints)."""
    if not path:
        return
    yield path[0]
    for a, b in zip(path, path[1:]):
        if a == b:
            continue
        dx = (b.x > a.x) - (b.x < a.x)
        dy = (b.y > a.y) - (b.y < a.y)
        p = a
        while p != b:
            p = Point(p.x + dx, p.y + dy)
            yield p
