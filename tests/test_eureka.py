"""Tests for the EUREKA routing driver: multipoint nets, claimpoints,
prerouted nets, the rip-up pass and the driver options."""

import pytest

from repro.core.diagram import Diagram
from repro.core.geometry import Point, Side
from repro.core.metrics import diagram_metrics
from repro.core.netlist import Network, TermType
from repro.core.validate import check_diagram, connectivity_matches_netlist
from repro.formats.escher import write_escher
from repro.obs import counters
from repro.obs.congestion import CongestionMap
from repro.route.eureka import FailureReason, RouterOptions, route_diagram
from repro.route.line_expansion import CostOrder
from repro.route.plane import Plane
from repro.workloads.stdlib import instantiate, make_module

from .conftest import assert_index_matches_rebuild


class TestSimpleRouting:
    def test_two_buffer_chain(self, two_buffer_diagram):
        report = route_diagram(two_buffer_diagram)
        assert report.nets_routed == report.nets_total == 3
        check_diagram(two_buffer_diagram)
        assert connectivity_matches_netlist(two_buffer_diagram)

    def test_report_fields(self, two_buffer_diagram):
        report = route_diagram(two_buffer_diagram)
        assert report.success_rate == 1.0
        assert report.seconds >= 0
        assert report.search.routes >= 3
        assert report.claims_placed > 0

    def test_idempotent_on_routed_diagram(self, two_buffer_diagram):
        route_diagram(two_buffer_diagram)
        before = diagram_metrics(two_buffer_diagram)
        report = route_diagram(two_buffer_diagram)
        assert report.nets_total == 0  # everything already routed
        assert diagram_metrics(two_buffer_diagram) == before


class TestMultipoint:
    @pytest.fixture
    def fanout_diagram(self) -> Diagram:
        net = Network(name="fanout")
        net.add_module(instantiate("buf", "src"))
        for i in range(3):
            net.add_module(instantiate("buf", f"dst{i}"))
        net.connect("fan", "src.y", "dst0.a", "dst1.a", "dst2.a")
        d = Diagram(net)
        d.place_module("src", Point(0, 6))
        d.place_module("dst0", Point(10, 0))
        d.place_module("dst1", Point(10, 6))
        d.place_module("dst2", Point(10, 12))
        return d

    def test_fanout_routes_as_tree(self, fanout_diagram):
        report = route_diagram(fanout_diagram)
        assert report.nets_routed == 1
        route = fanout_diagram.routes["fan"]
        assert len(route.paths) == 3  # init pair + two expansions
        check_diagram(fanout_diagram)
        assert connectivity_matches_netlist(fanout_diagram)

    def test_branch_nodes_counted(self, fanout_diagram):
        route_diagram(fanout_diagram)
        m = diagram_metrics(fanout_diagram)
        assert m.branch_nodes >= 1


class TestPrerouted:
    def test_prerouted_net_kept(self, two_buffer_diagram):
        path = [
            Point(3, 1),
            Point(5, 1),
            Point(5, 4),
            Point(7, 4),
            Point(7, 1),
            Point(8, 1),
        ]
        two_buffer_diagram.route_for("n_mid").add_path(path)
        report = route_diagram(two_buffer_diagram)
        assert report.nets_total == 2  # n_mid already complete
        assert two_buffer_diagram.routes["n_mid"].paths == [path]
        check_diagram(two_buffer_diagram)

    def test_partial_preroute_extended(self):
        net = Network(name="partial")
        net.add_module(instantiate("buf", "src"))
        net.add_module(instantiate("buf", "a"))
        net.add_module(instantiate("buf", "b"))
        net.connect("fan", "src.y", "a.a", "b.a")
        d = Diagram(net)
        d.place_module("src", Point(0, 4))
        d.place_module("a", Point(10, 0))
        d.place_module("b", Point(10, 8))
        # Preroute src -> a only; the router must add the b branch.
        d.route_for("fan").add_path([Point(3, 5), Point(6, 5), Point(6, 1), Point(10, 1)])
        report = route_diagram(d)
        assert report.nets_routed == 1
        check_diagram(d)
        assert connectivity_matches_netlist(d)


class TestClaimpoints:
    @pytest.fixture
    def walled_network(self) -> Diagram:
        """Figure 5.10: terminals that a greedy first net would wall in.

        Modules MO and M1 face each other across a 2-track channel; nets
        A-B and C-D both cross the channel.  Without claims, A-B may take
        the track in front of C, making C-D unroutable.
        """
        net = Network(name="walled")
        net.add_module(
            make_module("MO", 4, 6, [("A", "out", 4, 5), ("C", "out", 4, 2)])
        )
        net.add_module(
            make_module("M1", 4, 6, [("B", "in", 0, 5), ("D", "in", 0, 1)])
        )
        net.connect("nAB", "MO.A", "M1.B")
        net.connect("nCD", "MO.C", "M1.D")
        d = Diagram(net)
        d.place_module("MO", Point(0, 0))
        d.place_module("M1", Point(7, 0))
        return d

    def test_claims_placed_and_released(self, walled_network):
        report = route_diagram(walled_network, RouterOptions(claimpoints=True))
        assert report.claims_placed >= 2
        assert report.nets_routed == 2
        check_diagram(walled_network)

    def test_retry_pass_rescues_after_claims_released(self, walled_network):
        # Even with claims off, the rip-up pass (all claims gone) plus the
        # exhaustive search routes this tiny case; what we assert here is
        # that the option plumbing works and the result is legal.
        report = route_diagram(
            walled_network, RouterOptions(claimpoints=False, retry_failed=True)
        )
        assert report.nets_routed + report.nets_failed == 2
        check_diagram(walled_network)


class TestOptions:
    def test_fixed_sides_clamp_plane(self, two_buffer_diagram):
        report = route_diagram(
            two_buffer_diagram,
            RouterOptions(fixed_sides=frozenset({Side.UP, Side.DOWN}), margin=6),
        )
        assert report.nets_routed == 3
        bbox = two_buffer_diagram.bounding_box(include_routes=False)
        for route in two_buffer_diagram.routes.values():
            for path in route.paths:
                for p in path:
                    assert bbox.y <= p.y <= bbox.y2

    def test_swap_option_constructor(self):
        opts = RouterOptions().with_swap_option()
        assert opts.cost_order is CostOrder.BENDS_LENGTH_CROSSINGS

    def test_net_order_variants(self, two_buffer_diagram):
        for order in ("input", "shortest_first", "fewest_pins_first"):
            d = two_buffer_diagram.copy_placement()
            report = route_diagram(d, RouterOptions(net_order=order))
            assert report.nets_routed == 3

    def test_impossible_net_reported(self):
        net = Network(name="boxed")
        net.add_module(make_module("a", 2, 2, [("y", "out", 2, 1)]))
        net.add_module(make_module("b", 2, 2, [("x", "in", 0, 1)]))
        net.add_module(make_module("wall", 2, 30, [("w", "in", 0, 15)]))
        net.connect("n", "a.y", "b.x")
        net.connect("nw", "wall.w", "a.y")
        d = Diagram(net)
        d.place_module("a", Point(0, 14))
        d.place_module("b", Point(20, 14))
        d.place_module("wall", Point(10, 0))
        # With all four borders pinned to the bounding box, the wall tops
        # out at the plane border: b is unreachable from a.
        report = route_diagram(
            d,
            RouterOptions(fixed_sides=frozenset(Side), margin=0),
        )
        assert "n" in report.failed_nets
        assert report.retried_nets  # the rip-up pass ran and still failed


def _keep_planes(monkeypatch) -> list[Plane]:
    """Collect every plane ``route_diagram`` builds, to inspect the live
    plane after the run."""
    planes = []
    build = Plane.for_diagram

    def for_diagram(*args, **kwargs):
        planes.append(build(*args, **kwargs))
        return planes[-1]

    monkeypatch.setattr(Plane, "for_diagram", for_diagram)
    return planes


def _assert_plane_matches_diagram(plane: Plane, diagram: Diagram) -> None:
    """The live plane holds exactly the diagram's paths, and its index
    equals one rebuilt from them."""
    assert plane.paths == {
        name: route.paths for name, route in diagram.routes.items() if route.paths
    }
    assert_index_matches_rebuild(plane)


class TestRipupPass:
    """The one bounded rip-up pass that follows the first pass."""

    def test_walled_in_terminal_completed(self, corridor_diagram, monkeypatch):
        planes = _keep_planes(monkeypatch)
        d = corridor_diagram()
        report = route_diagram(d)
        # ``b`` bent at the corridor's end and walled ``a`` in; the
        # relaxation already proved ``a`` unroutable on that plane.
        assert report.retried_nets == ["a"]
        assert report.ripped == {"a": ["b"]}
        # Ripped, ``a`` routed first through the corridor, and ``b`` took
        # its detour.
        assert report.recovered_nets == ["a"]
        assert report.nets_routed == 2 and not report.failed_nets
        assert d.routes["a"].paths == [[Point(0, 0), Point(4, 0), Point(4, -20)]]
        assert d.routes["b"].bends == 3
        check_diagram(d)
        assert connectivity_matches_netlist(d)
        [plane] = planes
        _assert_plane_matches_diagram(plane, d)

    def test_no_improvement_restores_every_touched_net(
        self, corridor_diagram, monkeypatch
    ):
        # ``b`` must bend on ``a``'s only track: ripped, ``a`` routes but
        # ``b`` no longer can, so the pass completes no more nets than the
        # first pass did and both nets get their first-pass state back.
        first = corridor_diagram(b_pin_in_corridor=True)
        route_diagram(first, RouterOptions(retry_failed=False))
        planes = _keep_planes(monkeypatch)
        d = corridor_diagram(b_pin_in_corridor=True)
        report = route_diagram(d)
        assert report.ripped == {"a": ["b"]}
        assert report.recovered_nets == []
        assert write_escher(d) == write_escher(first)
        assert d.routes["a"].failed_pins == first.routes["a"].failed_pins
        cmap = CongestionMap.from_diagram(d)
        assert cmap.to_dict() == CongestionMap.from_diagram(first).to_dict()
        [failure] = report.failed_nets
        assert failure == "a" and failure.reason is FailureReason.RETRY_EXHAUSTED
        assert failure.certificate == "field"
        check_diagram(d)
        [plane] = planes
        _assert_plane_matches_diagram(plane, d)
        assert cmap.occupancy_total == sum(plane.index.occ)

    def test_retry_failed_false_runs_no_pass(self, corridor_diagram):
        registry = counters.get_registry()
        retries = registry.get("route.retries")
        d = corridor_diagram()
        report = route_diagram(d, RouterOptions(retry_failed=False))
        assert report.failed_nets == ["a"]
        assert report.retried_nets == report.recovered_nets == []
        assert report.ripped == {}
        assert registry.get("route.retries") == retries
        assert d.routes["b"].paths == [[Point(4, 10), Point(4, 0), Point(10, 0)]]

    def test_prerouted_geometry_never_ripped(self, corridor_diagram):
        # A fully prerouted ``b`` is no blocker: the pass reroutes ``a``
        # alone, which fails again.
        d = corridor_diagram()
        wall = [Point(4, 10), Point(4, 0), Point(10, 0)]
        d.route_for("b").add_path(wall)
        report = route_diagram(d)
        assert report.nets_total == 1
        assert report.ripped == {"a": []}
        assert d.routes["b"].paths == [wall]
        assert report.failed_nets == ["a"]
        assert report.failed_nets[0].reason is FailureReason.RETRY_EXHAUSTED
        # A partly prerouted failed net keeps its prerouted stub while
        # everything this run routed for it is ripped.
        d = corridor_diagram()
        stub = [Point(4, -20), Point(4, -15)]
        d.route_for("a").add_path(stub)
        report = route_diagram(d)
        assert report.recovered_nets == ["a"] and report.ripped == {"a": ["b"]}
        assert d.routes["a"].paths[0] == stub
        assert d.routes["a"].complete and d.routes["b"].complete
        check_diagram(d)
        assert connectivity_matches_netlist(d)
