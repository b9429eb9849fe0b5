"""System terminal placement (section 4.6.7).

System terminals go on the ring one track outside the placement bounding
box.  Each terminal is put at the free ring position nearest to the
gravity center of the subsystem terminals sharing its net — so inputs,
which connect to string heads on the left, naturally land on the left
border and outputs on the right, preserving left-to-right signal flow.
"""

from __future__ import annotations

from ..core.diagram import Diagram
from ..core.geometry import Point, Rect
from ..core.netlist import Net


def _gravity(diagram: Diagram, nets: list[Net]) -> tuple[float, float]:
    """GRAVITY_TERMINAL: mean position of the module terminals on a
    terminal's ``nets``; falls back to the placement center for
    unconnected terminals."""
    points: list[Point] = []
    for net in nets:
        for pin in net.pins:
            if not pin.is_system and pin.module in diagram.placements:
                points.append(diagram.pin_position(pin))
    if not points:
        return diagram.bounding_box(include_routes=False).center
    return (
        sum(p.x for p in points) / len(points),
        sum(p.y for p in points) / len(points),
    )


def _ring_positions(bbox: Rect, offset: int = 1) -> list[Point]:
    ring = bbox.expand(offset)
    out: list[Point] = []
    for x in range(ring.x, ring.x2 + 1):
        out.append(Point(x, ring.y))
        out.append(Point(x, ring.y2))
    for y in range(ring.y + 1, ring.y2):
        out.append(Point(ring.x, y))
        out.append(Point(ring.x2, y))
    return out


def _escape_points(diagram: Diagram) -> dict[Point, set[str]]:
    """The track points directly outside connected subsystem terminals,
    mapped to the nets owning them.

    A module terminal's only access is the point one step off its module
    side; parking a *foreign* system terminal there would wall the pin in
    (the failure the claimpoints of section 5.7 guard against).  A system
    terminal of the same net may sit there — that is the ideal spot.
    """
    out: dict[Point, set[str]] = {}
    for net in diagram.network.nets.values():
        for pin in net.pins:
            if pin.is_system or pin.module not in diagram.placements:
                continue
            side = diagram.pin_side(pin)
            if side is not None:
                point = diagram.pin_position(pin).step(side.outward)
                out.setdefault(point, set()).add(net.name)
    return out


def place_terminals(diagram: Diagram, *, offset: int = 1) -> None:
    """TERMINAL_PLACEMENT: place every still-unplaced system terminal on
    the free ring position nearest its net's gravity center.

    The ring is ``offset`` tracks outside the bounding box; a terminal
    that finds every position of it taken, or kept for a foreign pin's
    escape, goes to the next ring out that has a free position."""
    unplaced = [
        name
        for name in diagram.network.system_terminals
        if name not in diagram.terminal_positions
    ]
    if not unplaced:
        return
    bbox = diagram.bounding_box(include_routes=False)
    escapes = _escape_points(diagram)
    rings = {offset: _ring_positions(bbox, offset)}
    taken = set(diagram.terminal_positions.values())

    # Each system terminal's nets, once each and in network order, so the
    # gravity sums add up in the same order as a scan of every net.
    terminal_nets: dict[str, list[Net]] = {}
    for net in diagram.network.nets.values():
        for terminal in dict.fromkeys(p.terminal for p in net.pins if p.is_system):
            terminal_nets.setdefault(terminal, []).append(net)

    # Strongly connected terminals first so they get the best positions.
    def pin_count(name: str) -> int:
        return sum(len(net.pins) for net in terminal_nets.get(name, ()))

    for name in sorted(unplaced, key=lambda n: (-pin_count(n), n)):
        nets = terminal_nets.get(name, [])
        own_nets = {net.name for net in nets}
        gx, gy = _gravity(diagram, nets)
        track = offset
        while True:
            if track not in rings:
                rings[track] = _ring_positions(bbox, track)
            candidates = [
                p
                for p in rings[track]
                if p not in taken
                and (p not in escapes or escapes[p] <= own_nets)
            ]
            if candidates:
                break
            track += 1
        best = min(
            candidates,
            key=lambda p: (p.x - gx) ** 2 + (p.y - gy) ** 2,
        )
        taken.add(best)
        diagram.place_system_terminal(name, best)
