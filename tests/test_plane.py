"""Unit tests for the routing plane obstacle model.

The obstacle questions (may a wire enter a point, turn there, how many
nets does it cross) are asked of a
:class:`~repro.route.reference.ReferenceSnapshot` of the plane, which
derives them from the committed paths.
"""

from repro.core.geometry import Direction, Point, Rect, Side
from repro.route.plane import Plane
from repro.route.reference import ReferenceSnapshot


def _plane(w=20, h=20) -> Plane:
    return Plane(bounds=Rect(0, 0, w, h))


def _enterable(plane, point, direction, net, allow=frozenset()) -> bool:
    return ReferenceSnapshot(plane, net, allow).enterable(point, direction)


def _can_turn_at(plane, point, net) -> bool:
    return point not in ReferenceSnapshot(plane, net, frozenset()).foreign_any


def _crossings_at(plane, point, direction, net) -> int:
    return ReferenceSnapshot(plane, net, frozenset()).crossings(point, direction)


class TestBlocking:
    def test_out_of_bounds(self):
        p = _plane(5, 5)
        assert not _enterable(p, Point(6, 0), Direction.RIGHT, "n")
        assert not _enterable(p, Point(-1, 0), Direction.LEFT, "n")
        assert _enterable(p, Point(5, 5), Direction.RIGHT, "n")

    def test_block_rect_covers_border_and_interior(self):
        p = _plane()
        p.block_rect(Rect(2, 2, 3, 3))
        assert not _enterable(p, Point(2, 2), Direction.RIGHT, "n")  # corner
        assert not _enterable(p, Point(3, 3), Direction.RIGHT, "n")  # interior
        assert not _enterable(p, Point(5, 5), Direction.RIGHT, "n")  # far corner
        assert _enterable(p, Point(6, 5), Direction.RIGHT, "n")

    def test_allow_exempts_terminal(self):
        p = _plane()
        p.block_rect(Rect(2, 2, 3, 3))
        term = Point(2, 3)
        assert not _enterable(p, term, Direction.RIGHT, "n")
        assert _enterable(p, term, Direction.RIGHT, "n", allow=frozenset({term}))


class TestNetObstacles:
    def test_parallel_overlap_forbidden(self):
        p = _plane()
        p.add_net_path("other", [Point(0, 5), Point(10, 5)])
        assert not _enterable(p, Point(4, 5), Direction.RIGHT, "n")

    def test_perpendicular_cross_allowed_and_counted(self):
        p = _plane()
        p.add_net_path("other", [Point(0, 5), Point(10, 5)])
        assert _enterable(p, Point(4, 5), Direction.UP, "n")
        assert _crossings_at(p, Point(4, 5), Direction.UP, "n") == 1
        assert _crossings_at(p, Point(4, 5), Direction.UP, "other") == 0

    def test_bend_point_blocks_even_perpendicular(self):
        p = _plane()
        p.add_net_path("other", [Point(0, 5), Point(6, 5), Point(6, 9)])
        # (6,5) is a bend of "other": nothing may pass through it.
        assert not _enterable(p, Point(6, 5), Direction.UP, "n")
        assert not _enterable(p, Point(6, 5), Direction.RIGHT, "n")

    def test_endpoints_block(self):
        p = _plane()
        p.add_net_path("other", [Point(2, 5), Point(8, 5)])
        assert not _enterable(p, Point(2, 5), Direction.UP, "n")
        assert not _enterable(p, Point(8, 5), Direction.UP, "n")

    def test_own_net_is_transparent(self):
        p = _plane()
        p.add_net_path("n", [Point(0, 5), Point(10, 5)])
        assert _enterable(p, Point(4, 5), Direction.RIGHT, "n")
        assert _can_turn_at(p, Point(4, 5), "n")

    def test_can_turn_blocked_by_foreign_wire(self):
        p = _plane()
        p.add_net_path("other", [Point(0, 5), Point(10, 5)])
        assert not _can_turn_at(p, Point(4, 5), "n")
        assert _can_turn_at(p, Point(4, 6), "n")

    def test_net_points(self):
        p = _plane()
        p.add_net_path("n", [Point(0, 0), Point(2, 0)])
        assert p.net_points("n") == {Point(0, 0), Point(1, 0), Point(2, 0)}


class TestClaims:
    def test_claim_blocks_and_releases(self):
        p = _plane()
        assert p.add_claim(Point(3, 3), owner="o1")
        assert not _enterable(p, Point(3, 3), Direction.UP, "n")
        p.release_claims(["o1"])
        assert _enterable(p, Point(3, 3), Direction.UP, "n")

    def test_claim_refused_on_occupied(self):
        p = _plane()
        p.blocked.add(Point(3, 3))
        assert not p.add_claim(Point(3, 3), owner="o1")
        p.add_net_path("n", [Point(5, 5), Point(6, 5)])
        assert not p.add_claim(Point(5, 5), owner="o1")

    def test_claim_refused_out_of_bounds(self):
        p = _plane(5, 5)
        assert not p.add_claim(Point(9, 9), owner="o1")

    def test_release_all(self):
        p = _plane()
        p.add_claim(Point(1, 1), owner="a")
        p.add_claim(Point(2, 2), owner="b")
        p.release_all_claims()
        assert not p.claims


class TestForDiagram:
    def test_margins_and_fixed_sides(self, two_buffer_diagram):
        p = Plane.for_diagram(two_buffer_diagram, margin=5)
        bbox = two_buffer_diagram.bounding_box()
        assert p.bounds.x == bbox.x - 5 and p.bounds.y2 == bbox.y2 + 5
        p2 = Plane.for_diagram(
            two_buffer_diagram, margin=5, fixed_sides=[Side.LEFT, Side.UP]
        )
        assert p2.bounds.x == bbox.x
        assert p2.bounds.y2 == bbox.y2
        assert p2.bounds.x2 == bbox.x2 + 5

    def test_modules_and_terminals_blocked(self, two_buffer_diagram):
        p = Plane.for_diagram(two_buffer_diagram)
        assert Point(1, 1) in p.blocked  # inside u0
        assert Point(-4, 1) in p.blocked  # din's position

    def test_prerouted_nets_registered(self, two_buffer_diagram):
        two_buffer_diagram.route_for("n_mid").add_path([Point(3, 1), Point(8, 1)])
        p = Plane.for_diagram(two_buffer_diagram)
        assert p.net_points("n_mid")
        assert not _enterable(p, Point(5, 1), Direction.RIGHT, "n_in")


class TestOccupied:
    def test_occupied(self):
        p = _plane()
        assert not p.occupied(Point(1, 1))
        p.blocked.add(Point(1, 1))
        assert p.occupied(Point(1, 1))
        p.add_net_path("n", [Point(2, 2), Point(3, 2)])
        assert p.occupied(Point(2, 2))


class TestLifetime:
    def test_routed_plane_freed_without_cycle_collector(self):
        # The plane owns its index; the index must not own the plane back,
        # or every finished plane waits for the cycle collector.
        import gc
        import weakref

        from repro.route import line_expansion

        p = _plane()
        p.block_rect(Rect(8, 0, 2, 15))
        p.add_net_path("other", [Point(0, 17), Point(20, 17)])
        assert p.add_claim(Point(15, 10), "c")
        r = line_expansion.route_connection(
            p, "n", Point(2, 2), list(Direction), [Point(18, 2)]
        )
        assert r is not None
        p.add_net_path("n", r.path)
        ref = weakref.ref(p)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del p
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
