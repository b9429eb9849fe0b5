"""The routing plane: the obstacle model of section 5.6.2.

The plane knows, for every grid point, what would block or penalise a wire
passing through it:

* module borders and interiors block (``ADD_OBSTACLE_BOUNDINGS``),
* the plane border blocks (it is "treated as sides of modules"),
* system terminal positions block for foreign nets,
* previously routed net segments may be *crossed* perpendicularly
  (costing one crossover) but never overlapped, and their bend, end and
  branch points block entirely ("the only obstacles are modules and bends
  in nets"),
* claimpoints (section 5.7) block like modules until released.

Routers ask the plane three questions: can a wire *enter* a point moving
in a direction, can it *turn or terminate* there, and how many foreign
nets does it cross there.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from ..core.diagram import Diagram
from ..core.geometry import (
    Direction,
    Orientation,
    Point,
    Rect,
    Side,
    normalize_path,
    path_points,
    path_segments,
)
from .index import IndexedPointSet, PlaneIndex

DEFAULT_MARGIN = 4


@dataclass
class Plane:
    """Mutable routing state over a bounded grid.

    Every mutation keeps the :class:`~repro.route.index.PlaneIndex` in
    ``self.index`` up to date, so routers get per-connection views of the
    obstacle field in O(own net) instead of rebuilding O(plane) snapshots.
    """

    bounds: Rect
    blocked: set[Point] = field(default_factory=set)
    claims: dict[Point, Hashable] = field(default_factory=dict)
    # point -> net name -> orientations of wire through the point
    usage: dict[Point, dict[str, set[Orientation]]] = field(
        default_factory=lambda: defaultdict(dict)
    )
    # net name -> points where the net bends, ends or branches
    nodes: dict[str, set[Point]] = field(default_factory=lambda: defaultdict(set))
    index: PlaneIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.index = PlaneIndex(self)
        # ``blocked`` is mutated directly by callers, so the notifying
        # container carries the index hook; pre-populated contents (the
        # dataclass allows passing them) are ingested here.
        self.blocked = IndexedPointSet(self.index, self.blocked)
        self._claims_by_owner: dict[Hashable, set[Point]] = {}
        for point, owner in self.claims.items():
            self._claims_by_owner.setdefault(owner, set()).add(point)
        self.index.rebuild()

    # -- construction ---------------------------------------------------

    @classmethod
    def for_diagram(
        cls,
        diagram: Diagram,
        *,
        margin: int = DEFAULT_MARGIN,
        fixed_sides: Iterable[Side] = (),
    ) -> "Plane":
        """Build the plane for a placed diagram.

        The routable area is the placement bounding box grown by
        ``margin`` tracks, except on ``fixed_sides`` (the -u/-d/-r/-l
        options of EUREKA) where the border stays on the bounding box.
        Existing routes in the diagram are registered as prerouted nets.
        """
        bbox = diagram.bounding_box(include_routes=True)
        fixed = set(fixed_sides)
        x1 = bbox.x - (0 if Side.LEFT in fixed else margin)
        y1 = bbox.y - (0 if Side.DOWN in fixed else margin)
        x2 = bbox.x2 + (0 if Side.RIGHT in fixed else margin)
        y2 = bbox.y2 + (0 if Side.UP in fixed else margin)
        plane = cls(bounds=Rect(x1, y1, x2 - x1, y2 - y1))
        for pm in diagram.placements.values():
            plane.block_rect(pm.rect)
        for pos in diagram.terminal_positions.values():
            plane.blocked.add(pos)
        for name, route in diagram.routes.items():
            for path in route.paths:
                plane.add_net_path(name, path)
        return plane

    def block_rect(self, rect: Rect) -> None:
        """Block every border and interior point of a module rectangle."""
        for x in range(rect.x, rect.x2 + 1):
            for y in range(rect.y, rect.y2 + 1):
                self.blocked.add(Point(x, y))

    # -- claims (section 5.7) --------------------------------------------

    def add_claim(self, point: Point, owner: Hashable) -> bool:
        """Reserve a point for ``owner``; fails on already-occupied points."""
        if point in self.blocked or point in self.claims or point in self.usage:
            return False
        if not self.bounds.contains(point):
            return False
        self.claims[point] = owner
        self._claims_by_owner.setdefault(owner, set()).add(point)
        self.index.hard_changed(point, True)
        return True

    def release_claims(self, owners: Iterable[Hashable]) -> int:
        """Release every claim of the given owners; returns how many
        points were freed (served from the per-owner map, O(released)
        instead of a scan over all claims)."""
        released = 0
        for owner in set(owners):
            for point in self._claims_by_owner.pop(owner, ()):
                del self.claims[point]
                self.index.hard_changed(point, False)
                released += 1
        return released

    def release_all_claims(self) -> int:
        released = len(self.claims)
        for point in list(self.claims):
            del self.claims[point]  # before the hook: it re-checks claims
            self.index.hard_changed(point, False)
        self._claims_by_owner.clear()
        return released

    # -- net registration -------------------------------------------------

    def add_net_path(self, net: str, path: Sequence[Point]) -> None:
        """Register a routed path: its covered points become wire usage,
        its vertices become blocking nodes."""
        norm = normalize_path(path)
        if not norm:
            return
        self.nodes[net].update(norm)  # endpoints and every bend vertex
        for seg in path_segments(norm):
            for p in seg.points():
                self.usage[p].setdefault(net, set()).add(seg.orientation)
        if len(norm) == 1:
            self.usage[norm[0]].setdefault(net, set())
        self._update_branch_nodes(net, norm)
        self.index.net_path_added(net, set(path_points(norm)))

    def _update_branch_nodes(self, net: str, path: Sequence[Point]) -> None:
        """A later path joining earlier geometry creates a branch node at
        the junction; junctions must block other nets."""
        for endpoint in (path[0], path[-1]):
            self.nodes[net].add(endpoint)

    def net_points(self, net: str) -> set[Point]:
        return self.index.net_points(net)

    def remove_net(self, net: str) -> None:
        """Erase every trace of ``net`` from the plane in O(own net):
        usage entries, node points and the index contribution.  Afterwards
        the plane (and its index) is indistinguishable from one that never
        routed the net."""
        for p in self.index.net_points(net):
            here = self.usage.get(p)
            if here is not None and net in here:
                del here[net]
                if not here:
                    del self.usage[p]
        self.nodes.pop(net, None)
        self.index.remove_net(net)

    # -- router queries ----------------------------------------------------

    def enterable(
        self,
        point: Point,
        direction: Direction,
        net: str,
        allow: frozenset[Point] = frozenset(),
    ) -> bool:
        """Can a wire of ``net`` move into ``point`` travelling in
        ``direction``?  ``allow`` exempts the net's own terminal points
        from the module/terminal blocks."""
        if not self.bounds.contains(point):
            return False
        if (point in self.blocked or point in self.claims) and point not in allow:
            return False
        ori = direction.orientation
        here = self.usage.get(point)
        if here:
            for other, orientations in here.items():
                if other == net:
                    continue
                if ori in orientations or not orientations:
                    return False  # overlap with a parallel foreign wire
                if point in self.nodes.get(other, ()):
                    return False  # foreign bend/end/branch point blocks
        return True

    def can_turn_at(self, point: Point, net: str) -> bool:
        """Bending or terminating at ``point`` is only legal when no
        foreign wire passes through it (a bend on a foreign wire would be
        an overlap, not a crossing)."""
        here = self.usage.get(point)
        if not here:
            return True
        return all(other == net for other in here)

    def crossings_at(self, point: Point, direction: Direction, net: str) -> int:
        """Number of foreign nets crossed when passing straight through
        ``point`` in ``direction``."""
        here = self.usage.get(point)
        if not here:
            return 0
        ori = direction.orientation
        return sum(
            1
            for other, orientations in here.items()
            if other != net and ori.perpendicular in orientations
        )

    # -- misc ---------------------------------------------------------------

    def occupied(self, point: Point) -> bool:
        return point in self.blocked or point in self.claims or point in self.usage
