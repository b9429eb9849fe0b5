"""Tests for gravity placement (generic), box/partition placement and
terminal placement."""

import random

import pytest

from repro.core.diagram import Diagram
from repro.core.generator import generate
from repro.core.geometry import Point, Rect
from repro.core.netlist import Network, TermType
from repro.core.validate import check_diagram, placement_violations
from repro.place.box_place import place_partition
from repro.place.boxes import form_boxes
from repro.place.gravity import GravityItem, _nearest_free_position, place_by_gravity
from repro.place.module_place import place_box
from repro.place.terminal_place import place_terminals
from repro.workloads.examples import example2_controller
from repro.workloads.stdlib import instantiate, make_module


def _rects(items, positions):
    by_key = {i.key: i for i in items}
    return {
        k: Rect(p.x, p.y, by_key[k].width, by_key[k].height)
        for k, p in positions.items()
    }


class TestPlaceByGravity:
    def test_first_item_is_heaviest(self):
        items = [
            GravityItem("small", 2, 2, weight=1),
            GravityItem("big", 4, 4, weight=5),
        ]
        pos = place_by_gravity(items)
        assert pos["big"] == Point(0, 0)

    def test_no_overlap(self):
        items = [
            GravityItem(f"i{k}", 5, 5, net_points={"n": [Point(0, 0)]}, weight=1)
            for k in range(6)
        ]
        pos = place_by_gravity(items)
        rects = list(_rects(items, pos).values())
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)

    def test_spacing_respected(self):
        items = [
            GravityItem("a", 4, 4, net_points={"n": [Point(4, 2)]}, weight=2),
            GravityItem("b", 4, 4, net_points={"n": [Point(0, 2)]}, weight=1),
        ]
        pos = place_by_gravity(items, spacing=3)
        ra, rb = _rects(items, pos).values()
        gap_x = max(rb.x - ra.x2, ra.x - rb.x2)
        gap_y = max(rb.y - ra.y2, ra.y - rb.y2)
        assert max(gap_x, gap_y) >= 3

    def test_connected_items_attract(self):
        # c is connected to a; d is not. c must end up nearer to a.
        items = [
            GravityItem("a", 4, 4, net_points={"n": [Point(2, 2)]}, weight=10),
            GravityItem("c", 2, 2, net_points={"n": [Point(1, 1)]}),
            GravityItem("d", 2, 2, net_points={}),
        ]
        pos = place_by_gravity(items)
        da = pos["c"].manhattan(pos["a"])
        dd = pos["d"].manhattan(pos["a"])
        assert da <= dd

    def test_preplaced_stay_fixed(self):
        items = [
            GravityItem("fixed", 4, 4, net_points={"n": [Point(2, 2)]}),
            GravityItem("new", 2, 2, net_points={"n": [Point(1, 1)]}),
        ]
        pos = place_by_gravity(items, preplaced={"fixed": Point(50, 50)})
        assert pos["fixed"] == Point(50, 50)
        assert pos["new"].manhattan(Point(50, 50)) < 30

    def test_preplaced_unknown_key(self):
        with pytest.raises(KeyError):
            place_by_gravity(
                [GravityItem("a", 1, 1)], preplaced={"ghost": Point(0, 0)}
            )


def _ring_search(ideal, item, placed_rects, spacing):
    """The point-by-point search the interval search replaced: every point
    of each Chebyshev ring against every placed rect, the nearest feasible
    point of the first ring that has one, the first in ring order on a
    tie."""

    def feasible(p):
        candidate = Rect(
            p.x - spacing, p.y - spacing, item.width + 2 * spacing, item.height + 2 * spacing
        )
        return not any(candidate.overlaps(r) for r in placed_rects)

    def ring(radius):
        x, y = ideal
        for dx in range(-radius, radius + 1):
            yield Point(x + dx, y + radius)
            yield Point(x + dx, y - radius)
        for dy in range(-radius + 1, radius):
            yield Point(x + radius, y + dy)
            yield Point(x - radius, y + dy)

    if feasible(ideal):
        return ideal
    extent = sum(
        max(r.w, r.h) + max(item.width, item.height) + spacing + 2 for r in placed_rects
    )
    for radius in range(1, max(extent, 8) + 1):
        best = best_d = None
        for p in ring(radius):
            if feasible(p):
                d = (p.x - ideal.x) ** 2 + (p.y - ideal.y) ** 2
                if best_d is None or d < best_d:
                    best, best_d = p, d
        if best is not None:
            return best
    raise RuntimeError("no free position")


class TestNearestFreePosition:
    def test_matches_ring_search(self):
        rng = random.Random(1989)
        blocked = 0
        for _ in range(2500):
            rects = [
                Rect(
                    rng.randint(-15, 15),
                    rng.randint(-15, 15),
                    rng.randint(0, 12),  # zero width or height included
                    rng.randint(0, 12),
                )
                for _ in range(rng.randint(1, 8))
            ]
            item = GravityItem("x", rng.randint(1, 10), rng.randint(1, 10))
            spacing = rng.randint(0, 3)
            ideal = Point(rng.randint(-12, 12), rng.randint(-12, 12))
            want = _ring_search(ideal, item, rects, spacing)
            blocked += want != ideal
            assert _nearest_free_position(ideal, item, rects, spacing) == want, (
                rects, item, spacing, ideal
            )
        # Both branches are exercised: free ideals and ring searches.
        assert 500 < blocked < 2000

    def test_tie_goes_to_first_in_ring_order(self):
        # A 1x1 item at the center of a 2x2 rect: (0, 1) on the top row
        # and (1, 0) on the right column tie at distance 1, and rows come
        # before columns.
        item = GravityItem("x", 1, 1)
        assert _nearest_free_position(
            Point(0, 0), item, [Rect(-1, -1, 2, 2)], 0
        ) == Point(0, 1)

    def test_zero_width_rect_blocks_its_interior(self):
        wall = Rect(0, -5, 0, 10)
        wide = GravityItem("x", 2, 1)
        assert _nearest_free_position(Point(-1, 0), wide, [wall], 0) != Point(-1, 0)
        narrow = GravityItem("x", 1, 1)
        assert _nearest_free_position(Point(-1, 0), narrow, [wall], 0) == Point(-1, 0)


class TestPartitionPlacement:
    def test_boxes_do_not_overlap(self, example2):
        parts = [sorted(example2.modules)]
        boxes = form_boxes(example2, parts[0], max_box_size=5)
        layouts = [place_box(example2, b) for b in boxes]
        layout = place_partition(example2, layouts)
        d = Diagram(example2)
        for pos, (box, origin) in zip(
            layout.box_positions, zip(layout.boxes, layout.box_positions)
        ):
            pass
        for module, (pos, rot) in layout.module_placements().items():
            d.place_module(module, pos, rot)
        assert placement_violations(d) == []

    def test_layout_normalised_to_origin(self, example2):
        boxes = form_boxes(example2, sorted(example2.modules), max_box_size=3)
        layouts = [place_box(example2, b) for b in boxes]
        layout = place_partition(example2, layouts)
        assert min(p.x for p in layout.box_positions) == 0
        assert min(p.y for p in layout.box_positions) == 0
        assert layout.width > 0 and layout.height > 0

    def test_net_points_translated(self, example2):
        boxes = form_boxes(example2, sorted(example2.modules), max_box_size=3)
        layouts = [place_box(example2, b) for b in boxes]
        layout = place_partition(example2, layouts)
        pts = layout.net_points(example2)
        assert pts  # every connected terminal appears
        for plist in pts.values():
            for p in plist:
                assert 0 <= p.x <= layout.width
                assert 0 <= p.y <= layout.height


class TestTerminalPlacement:
    def test_on_ring_and_free(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(8, 0))
        place_terminals(d)
        assert set(d.terminal_positions) == {"din", "dout"}
        bbox = Rect(0, 0, 11, 2).expand(1)
        for pos in d.terminal_positions.values():
            on_ring = (
                pos.x in (bbox.x, bbox.x2) and bbox.y <= pos.y <= bbox.y2
            ) or (pos.y in (bbox.y, bbox.y2) and bbox.x <= pos.x <= bbox.x2)
            assert on_ring
        assert placement_violations(d) == []

    def test_input_lands_left_output_right(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(8, 0))
        place_terminals(d)
        # Rule 4: din connects to u0.a on the left, dout to u1.y right.
        assert d.terminal_positions["din"].x < d.terminal_positions["dout"].x

    def test_existing_positions_kept(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(8, 0))
        d.place_system_terminal("din", Point(-7, 0))
        place_terminals(d)
        assert d.terminal_positions["din"] == Point(-7, 0)

    def test_no_terminals_no_op(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        d = Diagram(net)
        d.place_module("u", Point(0, 0))
        place_terminals(d)
        assert d.terminal_positions == {}

    def test_full_ring_steps_out(self):
        # 24 system terminals round one 2x2 module: its first ring has 16
        # positions, two of them the escape points of the module's pins.
        net = Network(name="crowded")
        net.add_module(make_module("u", 2, 2, [("a", "in", 0, 1), ("y", "out", 2, 1)]))
        net.add_system_terminal("din", TermType.IN)
        net.add_system_terminal("dout", TermType.OUT)
        net.connect("n_in", "din", "u.a")
        net.connect("n_out", "u.y", "dout")
        for i in range(11):
            net.add_system_terminal(f"in{i}", TermType.IN)
            net.add_system_terminal(f"out{i}", TermType.OUT)
            net.connect(f"f{i}", f"in{i}", f"out{i}")
        net.validate()
        d = Diagram(net)
        d.place_module("u", Point(0, 0))
        place_terminals(d)

        def on_ring(p, offset):
            r = Rect(0, 0, 2, 2).expand(offset)
            return (p.x in (r.x, r.x2) and r.y <= p.y <= r.y2) or (
                p.y in (r.y, r.y2) and r.x <= p.x <= r.x2
            )

        positions = list(d.terminal_positions.values())
        assert len(positions) == len(set(positions)) == 24
        assert sum(on_ring(p, 1) for p in positions) == 16
        assert sum(on_ring(p, 2) for p in positions) == 8
        assert d.terminal_positions["din"] == Point(-1, 1)  # its escape point
        assert placement_violations(d) == []

        result = generate(net)
        assert result.diagram.is_placed
        check_diagram(result.diagram)

    def test_unconnected_terminal_still_placed(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.add_system_terminal("spare", TermType.IN)
        d = Diagram(net)
        d.place_module("u", Point(0, 0))
        place_terminals(d)
        assert "spare" in d.terminal_positions
