"""Center-of-gravity constructive placement (sections 4.6.5 and 4.6.6).

Box placement inside a partition and partition placement of the whole
design follow the same scheme: place the largest item first, then
repeatedly take the unplaced item most heavily connected to the placed
ones, compute the gravity center of its shared-net terminals and of the
matching terminals already placed, and put the item at the free position
that brings the two centers closest without overlap.

This module implements the scheme generically over :class:`GravityItem`.

The free position is found without testing points one by one.  Each
placed rect, grown by the item's size and the spacing, forbids a closed
box of lower-left positions.  The search walks Chebyshev rings of growing
radius around the ideal position and answers each of a ring's four sides
(two rows, two columns) by interval arithmetic over the boxes that cross
it.  The smallest radius with a free position wins; within it the
smallest squared distance, and a tie goes to the first position in ring
order (rows before columns, then ascending offset, then the top row
before the bottom one and the right column before the left one).  The
cost per ring is linear in the placed items, not in the ring's length
times the placed items.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.geometry import Point, Rect


@dataclass
class GravityItem:
    """An abstract placeable rectangle with connected terminals.

    ``net_points`` maps a net name to the item-local positions of the
    item's terminals on that net; ``weight`` ranks the item for
    first-placement (the paper uses the module count).
    """

    key: str
    width: int
    height: int
    net_points: dict[str, list[Point]] = field(default_factory=dict)
    weight: int = 1


def _shared_centers(
    item: GravityItem,
    placed: dict[str, Point],
    items: dict[str, GravityItem],
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """(g0, g1): gravity of the candidate's shared-net terminals in local
    coordinates, and of the placed items' terminals on those nets in
    absolute coordinates.  ``None`` when no net is shared."""
    sx0 = sy0 = n0 = 0.0
    sx1 = sy1 = n1 = 0.0
    for net, local_pts in item.net_points.items():
        contributions = []
        for key, pos in placed.items():
            for p in items[key].net_points.get(net, ()):
                contributions.append(Point(pos.x + p.x, pos.y + p.y))
        if not contributions:
            continue
        for p in local_pts:
            sx0 += p.x
            sy0 += p.y
            n0 += 1
        for p in contributions:
            sx1 += p.x
            sy1 += p.y
            n1 += 1
    if n0 == 0 or n1 == 0:
        return None
    return (sx0 / n0, sy0 / n0), (sx1 / n1, sy1 / n1)


def _forbidden_boxes(
    item: GravityItem, placed_rects: list[Rect], spacing: int
) -> list[tuple[int, int, int, int]]:
    """``(x0, x1, y0, y1)``: per placed rect, the closed box of lower-left
    positions at which ``item``, grown by ``spacing``, would overlap it.

    This is :meth:`Rect.overlaps` solved for the position: touching is
    allowed, and a zero-width or zero-height rect still blocks its open
    interior.  Empty boxes are dropped.
    """
    w, h, s = item.width, item.height, spacing
    boxes = []
    for r in placed_rects:
        box = (r.x - w - s + 1, r.x2 + s - 1, r.y - h - s + 1, r.y2 + s - 1)
        if box[0] <= box[1] and box[2] <= box[3]:
            boxes.append(box)
    return boxes


def _line_offset(
    c: int,
    reach: int,
    line: int,
    by_start: list[tuple[int, int, int, int]],
    by_end: list[tuple[int, int, int, int]],
) -> int | None:
    """Offset from ``c`` of the free position nearest to it on ``line``,
    within ``c ± reach``; the negative one wins a tie.  ``None`` when every
    position in reach is forbidden.

    A box ``(a, b, lo, hi)`` forbids ``[a, b]`` along the line when
    ``lo <= line <= hi``.  ``by_start`` holds the boxes by ascending ``a``,
    ``by_end`` by descending ``b``, so each scan stops at the first box
    that can no longer cover its running position.
    """
    up = c
    for a, b, lo, hi in by_start:
        if a > up:
            break
        if b >= up and lo <= line <= hi:
            up = b + 1
    if up == c:
        return 0
    down = c
    for a, b, lo, hi in by_end:
        if b < down:
            break
        if a <= down and lo <= line <= hi:
            down = a - 1
    best = down - c if c - down <= reach else None
    if up - c <= reach and (best is None or up - c < -best):
        best = up - c
    return best


def _nearest_free_position(
    ideal: Point, item: GravityItem, placed_rects: list[Rect], spacing: int
) -> Point:
    """Free position nearest to ``ideal``, by growing Chebyshev radius.

    Each placed rect forbids a box of positions (:func:`_forbidden_boxes`).
    Ring ``r`` is four lines: the rows ``y = cy ± r`` over ``|dx| <= r``
    and the columns ``x = cx ± r`` over ``|dy| <= r - 1``; each line's
    free position nearest to the ring's axis is found by interval
    arithmetic over the boxes crossing it.  The smallest radius with a
    free position wins; within it the smallest squared distance, and a
    tie goes to the first position in ring order: rows before columns,
    then ascending ``dx`` or ``dy``, then the top row before the bottom
    one and the right column before the left one.
    """
    cx, cy = ideal
    boxes = _forbidden_boxes(item, placed_rects, spacing)
    if not any(x0 <= cx <= x1 and y0 <= cy <= y1 for x0, x1, y0, y1 in boxes):
        return ideal
    # Rows run along x and are selected by y; columns the other way.
    rows = sorted(boxes)
    rows_by_end = sorted(boxes, key=lambda b: -b[1])
    cols = sorted((y0, y1, x0, x1) for x0, x1, y0, y1 in boxes)
    cols_by_end = sorted(cols, key=lambda b: -b[1])
    extent = sum(max(r.w, r.h) + max(item.width, item.height) + spacing + 2 for r in placed_rects)
    max_radius = max(extent, 8)
    for radius in range(1, max_radius + 1):
        best: tuple[int, int, int, int] | None = None
        for side, y in enumerate((cy + radius, cy - radius)):
            dx = _line_offset(cx, radius, y, rows, rows_by_end)
            if dx is not None:
                key = (dx * dx, 0, dx, side)
                if best is None or key < best:
                    best = key
        for side, x in enumerate((cx + radius, cx - radius)):
            dy = _line_offset(cy, radius - 1, x, cols, cols_by_end)
            if dy is not None:
                key = (dy * dy, 1, dy, side)
                if best is None or key < best:
                    best = key
        if best is not None:
            _d, column, offset, side = best
            sign = -1 if side else 1
            if column:
                return Point(cx + sign * radius, cy + offset)
            return Point(cx + offset, cy + sign * radius)
    raise RuntimeError("gravity placement found no free position")  # pragma: no cover


def place_by_gravity(
    items: list[GravityItem],
    *,
    spacing: int = 0,
    preplaced: dict[str, Point] | None = None,
) -> dict[str, Point]:
    """Place all items; returns absolute lower-left positions.

    ``preplaced`` items keep their given positions and act as the initial
    seed of the placement (PABLO's -g option: the preplaced part forms a
    partition of its own and the rest is placed around it).
    """
    by_key = {item.key: item for item in items}
    placed: dict[str, Point] = {}
    placed_rects: list[Rect] = []
    placed_nets: set[str] = set()

    def put(item: GravityItem, pos: Point) -> None:
        placed[item.key] = pos
        placed_rects.append(Rect(pos.x, pos.y, item.width, item.height))
        placed_nets.update(item.net_points)

    for key, pos in (preplaced or {}).items():
        if key not in by_key:
            raise KeyError(f"preplaced item {key!r} is not among the items")
        put(by_key[key], pos)
    remaining = [item for item in items if item.key not in placed]

    if not placed and remaining:
        first = max(remaining, key=lambda i: (i.weight, i.width * i.height, i.key))
        remaining.remove(first)
        put(first, Point(0, 0))

    while remaining:
        # The most nets shared with the placed items first.
        item = max(
            remaining,
            key=lambda i: (len(placed_nets.intersection(i.net_points)), i.weight, i.key),
        )
        remaining.remove(item)
        centers = _shared_centers(item, placed, by_key)
        if centers is None:
            # Unconnected item: aim right of the current placement.
            bbox = placed_rects[0]
            for r in placed_rects[1:]:
                bbox = bbox.union(r)
            ideal = Point(bbox.x2 + spacing + 1, bbox.y)
        else:
            (g0x, g0y), (g1x, g1y) = centers
            ideal = Point(round(g1x - g0x), round(g1y - g0y))
        put(item, _nearest_free_position(ideal, item, placed_rects, spacing))
    return placed
