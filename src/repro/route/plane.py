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

The plane keeps each net's committed paths, and its
:class:`~repro.route.index.PlaneIndex` derives every obstacle count the
routers read from them.  The reference engine and the baselines ask a
:class:`~repro.route.reference.ReferenceSnapshot` instead, which derives
the same obstacles from the paths without the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from ..core.diagram import Diagram
from ..core.geometry import Point, Rect, Side, normalize_path
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
    # net name -> the net's committed paths, normalized
    paths: dict[str, list[list[Point]]] = field(default_factory=dict)
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
        if not self.bounds.contains(point) or self.occupied(point):
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
        """Commit a routed path of ``net``: foreign wires may cross its
        covered points at right angles, and its vertices block them."""
        norm = normalize_path(path)
        if norm:
            self.paths.setdefault(net, []).append(norm)
            self.index.net_path_added(net, norm)

    def net_points(self, net: str) -> set[Point]:
        return self.index.net_points(net)

    def remove_net(self, net: str) -> None:
        """Erase every trace of ``net`` from the plane in O(own net): its
        paths and its index contribution.  Afterwards the plane (and its
        index) is indistinguishable from one that never routed the net."""
        self.paths.pop(net, None)
        self.index.remove_net(net)

    # -- misc ---------------------------------------------------------------

    def occupied(self, point: Point) -> bool:
        """Is ``point`` blocked, claimed or on a routed wire?  Wires
        count only inside the bounds, where the index has cells."""
        cell = self.index.cell(point)
        return (
            point in self.blocked
            or point in self.claims
            or (cell is not None and self.index.occ[cell] != 0)
        )
