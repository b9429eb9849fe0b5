"""Edge-case tests across modules: driver restrictions, format corners,
behavioural odds and ends."""

import numpy as np
import pytest

from repro.core.diagram import Diagram
from repro.core.geometry import Point, path_points
from repro.core.netlist import Network, TermType
from repro.core.validate import check_diagram
from repro.route.eureka import RouterOptions, route_diagram
from repro.workloads.stdlib import instantiate


class TestOnlyNets:
    def test_restricts_routing(self, two_buffer_diagram):
        report = route_diagram(two_buffer_diagram, only_nets=["n_mid"])
        assert report.nets_total == 1
        assert "n_mid" in two_buffer_diagram.routes
        assert "n_in" not in two_buffer_diagram.routes

    def test_unknown_names_ignored(self, two_buffer_diagram):
        report = route_diagram(two_buffer_diagram, only_nets=["ghost"])
        assert report.nets_total == 0

    def test_remaining_nets_still_routable(self, two_buffer_diagram):
        route_diagram(two_buffer_diagram, only_nets=["n_mid"])
        report = route_diagram(two_buffer_diagram)
        assert report.nets_total == 2
        assert report.nets_failed == 0
        check_diagram(two_buffer_diagram)


class TestGeometryCorners:
    def test_path_points_empty(self):
        assert list(path_points([])) == []

    def test_path_points_single(self):
        assert list(path_points([Point(1, 2)])) == [Point(1, 2)]


class TestSimCorners:
    def test_read_unconnected_output(self):
        from repro.sim.behaviors import default_behaviors
        from repro.sim.logic import LogicSimulator, SimulationError

        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.add_module(instantiate("buf", "v"))
        net.add_system_terminal("q", TermType.OUT)
        net.connect("n", "u.y", "v.a")
        sim = LogicSimulator(net, default_behaviors(net))
        with pytest.raises(SimulationError, match="unconnected"):
            sim.read_output("q")

    def test_life_controller_rejects_bad_seed(self):
        from repro.sim.behaviors import LifeController

        with pytest.raises(ValueError):
            LifeController(np.zeros((3, 3)))

    def test_clock_generator_gating(self):
        from repro.sim.behaviors import ClockGenerator

        gen = ClockGenerator()
        assert gen.evaluate({"clk_in": 1, "enable": 1})["clk"] == 1
        assert gen.evaluate({"clk_in": 1, "enable": 0})["clk"] == 0
        gen.tick({})
        assert gen.evaluate({})["tick"] == 1


class TestEscherCorners:
    def test_isolated_point_net_roundtrip(self, two_buffer_diagram):
        from repro.formats.escher import read_escher, write_escher

        two_buffer_diagram.route_for("n_mid").add_path([Point(5, 5)])
        again = read_escher(
            write_escher(two_buffer_diagram), two_buffer_diagram.network
        )
        assert again.routes["n_mid"].points() == {Point(5, 5)}

    def test_vertical_arm_roundtrip(self, two_buffer_diagram):
        from repro.formats.escher import read_escher, write_escher

        two_buffer_diagram.route_for("n_mid").add_path(
            [Point(5, 5), Point(5, 9)]
        )
        again = read_escher(
            write_escher(two_buffer_diagram), two_buffer_diagram.network
        )
        assert again.routes["n_mid"].points() == set(
            Point(5, y) for y in range(5, 10)
        )


class TestRouterCorners:
    def test_route_two_point_net_same_position(self):
        """Degenerate: both pins land on the same point (stacked symbols
        are illegal, but abutting terminals are not)."""
        from repro.workloads.stdlib import make_module

        net = Network()
        net.add_module(make_module("a", 2, 2, [("y", "out", 2, 1)]))
        net.add_module(make_module("b", 2, 2, [("x", "in", 0, 1)]))
        net.connect("n", "a.y", "b.x")
        d = Diagram(net)
        d.place_module("a", Point(0, 0))
        d.place_module("b", Point(2, 0))  # borders touch; pins coincide
        report = route_diagram(d)
        assert report.nets_failed == 0
        route = d.routes["n"]
        assert route.points() == {Point(2, 1)}

    def test_margin_zero_with_all_sides_fixed(self, two_buffer_diagram):
        from repro.core.geometry import Side

        report = route_diagram(
            two_buffer_diagram,
            RouterOptions(margin=0, fixed_sides=frozenset(Side)),
        )
        # The plane is exactly the bounding box; everything still routes
        # because the terminals sit on its border ring.
        assert report.nets_routed + report.nets_failed == 3

    def test_swap_option_routes_legally(self, two_buffer_diagram):
        """-s (length before crossovers) still yields a legal diagram."""
        report = route_diagram(
            two_buffer_diagram, RouterOptions().with_swap_option()
        )
        assert report.nets_failed == 0
        check_diagram(two_buffer_diagram)


class TestCliCorners:
    def test_artwork_swap_flag(self, tmp_path):
        from repro.cli import artwork_main
        from repro.formats.netlist_files import save_network_files
        from repro.workloads.examples import example1_string

        paths = save_network_files(example1_string(), tmp_path)
        rc = artwork_main(
            [
                str(paths["netlist"]),
                str(paths["call"]),
                str(paths["io"]),
                "-p",
                "7",
                "-b",
                "7",
                "--swap",
                "-o",
                str(tmp_path / "a.svg"),
            ]
        )
        assert rc == 0
