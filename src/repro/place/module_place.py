"""Module placement inside a box (section 4.6.4).

The modules of a string are laid out left to right.  Every module is
rotated so the terminal connecting it to its predecessor faces left (the
first module faces its driving terminal right), and shifted vertically so
the connecting net needs at most two bends — by the paper's lemma this
makes the intra-string nets minimum-bend for the fixed level assignment.
White space is added around each module: the number of tracks on a side
equals the number of connected terminals on that side plus one (Appendix
E), plus a user-controlled extra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.geometry import Point, Side
from ..core.netlist import Adjacency, Module, Network
from ..core.rotation import Rotation
from .boxes import DriveEdge, drive_edges, string_edge


@dataclass
class BoxLayout:
    """A placed string: module positions relative to the box lower-left
    corner, per-module rotations, and the box dimension."""

    modules: list[str]
    positions: dict[str, Point] = field(default_factory=dict)
    rotations: dict[str, Rotation] = field(default_factory=dict)
    width: int = 0
    height: int = 0

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    def terminal_point(self, network: Network, module: str, terminal: str) -> Point:
        """Box-local position of a terminal of a member module."""
        mod = network.modules[module]
        rot = self.rotations[module]
        off = rot.apply(mod.terminals[terminal].offset, mod.width, mod.height)
        pos = self.positions[module]
        return Point(pos.x + off.x, pos.y + off.y)

    def net_points(
        self, network: Network, adjacency: Adjacency | None = None
    ) -> dict[str, list[Point]]:
        """Box-local connected-terminal positions per net (for gravity)."""
        adjacency = adjacency or network.adjacency()
        out: dict[str, list[Point]] = {}
        for module in self.modules:
            for net, pin in adjacency.pins_of_module(module):
                out.setdefault(net.name, []).append(
                    self.terminal_point(network, module, pin.terminal)
                )
        return out


def connected_terminals_on(
    network: Network,
    module: Module,
    rotation: Rotation,
    side: Side,
    adjacency: Adjacency | None = None,
) -> int:
    """Number of net-connected terminals facing ``side`` after rotation."""
    adjacency = adjacency or network.adjacency()
    connected = {pin.terminal for _net, pin in adjacency.pins_of_module(module.name)}
    count = 0
    for name in connected:
        if rotation.side(module.side(name)) is side:
            count += 1
    return count


def place_box(
    network: Network,
    box: list[str],
    *,
    extra_space: int = 0,
    adjacency: Adjacency | None = None,
) -> BoxLayout:
    """MODULE_PLACEMENT for one box (string) of modules."""
    adjacency = adjacency or network.adjacency()

    def space(module: Module, rot: Rotation, side: Side) -> int:
        """The white-space function f: connected terminals on the side + 1."""
        return connected_terminals_on(network, module, rot, side, adjacency) + 1 + extra_space

    layout = BoxLayout(modules=list(box))
    edges: list[DriveEdge | None] = []
    if len(box) > 1:
        members = set(box)
        drives = drive_edges(network, members)
        edges = [
            string_edge(network, prev, nxt, members, drives)
            for prev, nxt in zip(box, box[1:])
        ]

    first = network.modules[box[0]]
    if edges:
        out_side = first.side(edges[0].source_terminal)
        rot0 = Rotation.taking(out_side, Side.RIGHT)
    else:
        rot0 = Rotation.R0
    layout.rotations[box[0]] = rot0
    w0, h0 = rot0.size(first.width, first.height)
    x = space(first, rot0, Side.LEFT)
    y = space(first, rot0, Side.DOWN)
    layout.positions[box[0]] = Point(x, y)
    left, down = 0, 0
    right = x + w0 + space(first, rot0, Side.RIGHT)
    up = y + h0 + space(first, rot0, Side.UP)

    for edge in edges:
        assert edge is not None
        prev = network.modules[edge.source]
        mod = network.modules[edge.sink]
        prev_rot = layout.rotations[edge.source]
        rot = Rotation.taking(mod.side(edge.sink_terminal), Side.LEFT)
        layout.rotations[edge.sink] = rot

        prev_pos = layout.positions[edge.source]
        prev_w, prev_h = prev_rot.size(prev.width, prev.height)
        t_prev_off = prev_rot.apply(
            prev.terminals[edge.source_terminal].offset, prev.width, prev.height
        )
        t_off = rot.apply(
            mod.terminals[edge.sink_terminal].offset, mod.width, mod.height
        )
        prev_side = prev_rot.side(prev.side(edge.source_terminal))

        if prev_side is Side.RIGHT:
            y = prev_pos.y + t_prev_off.y - t_off.y
        elif prev_side is Side.UP:
            y = prev_pos.y + t_prev_off.y - t_off.y + 1
        elif prev_side is Side.DOWN:
            y = prev_pos.y - 1 - t_off.y
        else:  # LEFT: route around the shorter way
            if prev_h - t_prev_off.y > t_prev_off.y:
                y = prev_pos.y - 1 - t_off.y
            else:
                y = prev_pos.y + prev_h + 1 - t_off.y

        x = right + space(mod, rot, Side.LEFT)
        layout.positions[edge.sink] = Point(x, y)
        w, h = rot.size(mod.width, mod.height)
        right = x + w + space(mod, rot, Side.RIGHT)
        up = max(up, y + h + space(mod, rot, Side.UP))
        down = min(down, y - space(mod, rot, Side.DOWN))

    # Translate so the box lower-left corner is the local origin.
    dx, dy = -left, -down
    for name, pos in layout.positions.items():
        layout.positions[name] = Point(pos.x + dx, pos.y + dy)
    layout.width = right - left
    layout.height = up - down
    return layout
