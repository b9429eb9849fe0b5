"""Unit tests for diagram legality checking and connectivity extraction."""

import pytest

from repro.core.diagram import Diagram
from repro.core.geometry import Point
from repro.core.netlist import Pin
from repro.core.validate import (
    DiagramViolation,
    check_diagram,
    connectivity_matches_netlist,
    connectivity_violations,
    extract_connectivity,
    placement_violations,
    routing_violations,
)


def _route(diagram, name, *paths):
    route = diagram.route_for(name)
    for path in paths:
        route.add_path(list(path))
    return route


class TestPlacementViolations:
    def test_clean(self, two_buffer_diagram):
        assert placement_violations(two_buffer_diagram) == []

    def test_module_overlap(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(1, 1))
        assert any("overlap" in p for p in placement_violations(d))

    def test_touching_modules_ok(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(3, 0))  # shares the x=3 border line
        assert placement_violations(d) == []

    def test_terminal_on_module(self, two_buffer_diagram):
        two_buffer_diagram.place_system_terminal("din", Point(1, 1))
        assert any("overlaps module" in p for p in placement_violations(two_buffer_diagram))

    def test_terminals_collide(self, two_buffer_diagram):
        two_buffer_diagram.place_system_terminal("din", Point(20, 20))
        two_buffer_diagram.place_system_terminal("dout", Point(20, 20))
        assert any("terminals" in p for p in placement_violations(two_buffer_diagram))


class TestRoutingViolations:
    def test_clean_cross(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(3, 1), Point(8, 1)])
        _route(two_buffer_diagram, "n_in", [Point(-4, 1), Point(-4, 6), Point(5, 6), Point(5, 8)])
        assert routing_violations(two_buffer_diagram) == []

    def test_net_through_module(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(-1, 1), Point(10, 1)])
        assert any("inside module" in p or "border" in p for p in routing_violations(two_buffer_diagram))

    def test_net_overlap_parallel(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(4, 5), Point(9, 5)])
        _route(two_buffer_diagram, "n_in", [Point(5, 5), Point(7, 5)])
        assert any("not a pure crossing" in p for p in routing_violations(two_buffer_diagram))

    def test_perpendicular_cross_allowed(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(4, 5), Point(9, 5)])
        _route(two_buffer_diagram, "n_in", [Point(6, 0) , Point(6, 8)])
        assert routing_violations(two_buffer_diagram) == []

    def test_bend_on_foreign_wire_rejected(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(4, 5), Point(9, 5)])
        # n_in bends exactly on n_mid's wire: an overlap, not a crossing.
        _route(two_buffer_diagram, "n_in", [Point(6, 0), Point(6, 5), Point(12, 5)])
        assert any("not a pure crossing" in p for p in routing_violations(two_buffer_diagram))

    def test_endpoint_on_foreign_wire_rejected(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(4, 5), Point(9, 5)])
        _route(two_buffer_diagram, "n_in", [Point(6, 0), Point(6, 5)])
        assert any("not a pure crossing" in p for p in routing_violations(two_buffer_diagram))

    def test_wire_on_shared_border_of_abutting_modules(self, two_buffer_network):
        # x = 3 is both u0's right side and u1's left side: each point of
        # the wire there is reported once per module, in placement order.
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(3, 0))
        d.place_system_terminal("din", Point(-4, 1))
        d.place_system_terminal("dout", Point(10, 1))
        _route(d, "n_in", [Point(3, -2), Point(3, 4)])
        assert routing_violations(d) == [
            f"net 'n_in' touches module {module!r} border at {Point(3, y)} "
            "which is not one of its terminals"
            for y in (0, 1, 2)
            for module in ("u0", "u1")
        ]

    def test_net_on_foreign_system_terminal(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(-4, 0), Point(-4, 5)])
        # n_mid runs through din's position (-4, 1).
        assert any("foreign system terminal" in p for p in routing_violations(two_buffer_diagram))


class TestConnectivity:
    def test_violations_when_pin_missed(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(3, 1), Point(7, 1)])  # stops short
        assert any("does not reach" in p for p in connectivity_violations(two_buffer_diagram))

    def test_disconnected_geometry(self, two_buffer_diagram):
        _route(
            two_buffer_diagram,
            "n_mid",
            [Point(3, 1), Point(4, 1)],
            [Point(7, 1), Point(8, 1)],
        )
        assert any("disconnected" in p for p in connectivity_violations(two_buffer_diagram))
        # Two wires on adjacent parallel tracks, each reaching one pin:
        # grid neighbours all along, never joined.
        two_buffer_diagram.routes.clear()
        two_buffer_diagram.place_module("u1", Point(8, 1))  # u1.a at (8, 2)
        _route(
            two_buffer_diagram,
            "n_mid",
            [Point(3, 1), Point(7, 1)],
            [Point(4, 2), Point(8, 2)],
        )
        assert connectivity_violations(two_buffer_diagram) == [
            "net 'n_mid' geometry is disconnected"
        ]
        with pytest.raises(DiagramViolation, match="disconnected"):
            check_diagram(two_buffer_diagram)
        # Extraction follows the wire too: each wire is its own node.
        assert not connectivity_matches_netlist(two_buffer_diagram, nets=["n_mid"])
        mapping = extract_connectivity(two_buffer_diagram)
        assert mapping[Pin("u0", "y")] != mapping[Pin("u1", "a")]

    def test_paths_crossing_without_a_vertex_are_connected(self, two_buffer_diagram):
        # Each path reaches one pin; they meet only where the second
        # path's horizontal run crosses the first one's vertical run at
        # (5, 3), a vertex of neither, so only the wire's arms there join
        # them.
        _route(
            two_buffer_diagram,
            "n_mid",
            [Point(3, 1), Point(5, 1), Point(5, 4)],
            [Point(4, 3), Point(7, 3), Point(7, 1), Point(8, 1)],
        )
        assert connectivity_violations(two_buffer_diagram) == []

    def test_extract(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(3, 1), Point(8, 1)])
        mapping = extract_connectivity(two_buffer_diagram)
        assert mapping[Pin("u0", "y")] == "n_mid"
        assert mapping[Pin("u1", "a")] == "n_mid"
        assert Pin(None, "din") not in mapping

    def test_matches_netlist(self, two_buffer_diagram):
        _route(two_buffer_diagram, "n_mid", [Point(3, 1), Point(8, 1)])
        assert connectivity_matches_netlist(two_buffer_diagram, nets=["n_mid"])
        assert not connectivity_matches_netlist(two_buffer_diagram, nets=["n_in"])


class TestCheckDiagram:
    def test_raises_with_message(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(0, 0))
        with pytest.raises(DiagramViolation, match="overlap"):
            check_diagram(d, routed=False)

    def test_clean_passes(self, two_buffer_diagram):
        check_diagram(two_buffer_diagram, routed=False)
