"""The schematic diagram model.

A :class:`Diagram` is the artifact the generator produces (figure 3.2 of
the paper): every module and system terminal has a position, and — after
routing — every net has a rectilinear path.  The placement phase produces
a diagram with empty routes; the routing phase fills them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .geometry import (
    Point,
    Rect,
    Side,
    bounding_rect,
    net_geometry,
    normalize_path,
    path_bends,
    path_length,
)
from .netlist import Module, Net, Network, Pin
from .rotation import Rotation


class DiagramError(ValueError):
    """Raised for geometrically inconsistent diagrams."""


@dataclass
class PlacedModule:
    """A module instance with a position and rotation in the plane."""

    module: Module
    position: Point
    rotation: Rotation = Rotation.R0

    @property
    def name(self) -> str:
        return self.module.name

    @property
    def size(self) -> tuple[int, int]:
        return self.rotation.size(self.module.width, self.module.height)

    @property
    def rect(self) -> Rect:
        w, h = self.size
        return Rect(self.position.x, self.position.y, w, h)

    def terminal_offset(self, terminal: str) -> Point:
        """Rotated offset of a terminal relative to the lower-left corner."""
        term = self.module.terminals[terminal]
        return self.rotation.apply(term.offset, self.module.width, self.module.height)

    def terminal_position(self, terminal: str) -> Point:
        off = self.terminal_offset(terminal)
        return Point(self.position.x + off.x, self.position.y + off.y)

    def terminal_side(self, terminal: str) -> Side:
        return self.rotation.side(self.module.side(terminal))


@dataclass
class RoutedNet:
    """The drawn geometry of one net: a union of rectilinear paths.

    The first path connects two pins; each further path connects one more
    pin to the geometry routed so far (section 5.5.3), so the union forms
    a tree whose leaves are terminal positions.
    """

    net: Net
    paths: list[list[Point]] = field(default_factory=list)
    failed_pins: list[Pin] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failed_pins and bool(self.paths or len(self.net.pins) < 2)

    @property
    def name(self) -> str:
        return self.net.name

    def add_path(self, path: Sequence[Point]) -> None:
        norm = normalize_path(path)
        if len(norm) < 1:
            raise DiagramError(f"empty path on net {self.net.name!r}")
        self.paths.append(norm)

    @property
    def length(self) -> int:
        return sum(path_length(p) for p in self.paths)

    @property
    def bends(self) -> int:
        return sum(path_bends(p) for p in self.paths)

    def points(self) -> set[Point]:
        return set(net_geometry(self.paths)[0])


@dataclass
class Diagram:
    """A (partially) realised schematic: placement plus routed nets."""

    network: Network
    placements: dict[str, PlacedModule] = field(default_factory=dict)
    terminal_positions: dict[str, Point] = field(default_factory=dict)
    routes: dict[str, RoutedNet] = field(default_factory=dict)

    # -- construction -------------------------------------------------

    def place_module(
        self, name: str, position: Point, rotation: Rotation = Rotation.R0
    ) -> PlacedModule:
        module = self.network.modules.get(name)
        if module is None:
            raise DiagramError(f"unknown module {name!r}")
        placed = PlacedModule(module, position, rotation)
        self.placements[name] = placed
        return placed

    def place_system_terminal(self, name: str, position: Point) -> None:
        if name not in self.network.system_terminals:
            raise DiagramError(f"unknown system terminal {name!r}")
        self.terminal_positions[name] = position

    def route_for(self, net_name: str) -> RoutedNet:
        route = self.routes.get(net_name)
        if route is None:
            net = self.network.nets.get(net_name)
            if net is None:
                raise DiagramError(f"unknown net {net_name!r}")
            route = RoutedNet(net)
            self.routes[net_name] = route
        return route

    # -- geometry queries ----------------------------------------------

    def pin_position(self, pin: Pin) -> Point:
        if pin.is_system:
            try:
                return self.terminal_positions[pin.terminal]
            except KeyError:
                raise DiagramError(
                    f"system terminal {pin.terminal!r} is not placed"
                ) from None
        placed = self.placements.get(pin.module or "")
        if placed is None:
            raise DiagramError(f"module {pin.module!r} is not placed")
        return placed.terminal_position(pin.terminal)

    def pin_side(self, pin: Pin) -> Side | None:
        """Module side the pin faces, or ``None`` for system terminals
        (which may expand in every direction, section 5.6.3)."""
        if pin.is_system:
            return None
        return self.placements[pin.module].terminal_side(pin.terminal)

    @property
    def is_placed(self) -> bool:
        return set(self.placements) == set(self.network.modules) and set(
            self.terminal_positions
        ) == set(self.network.system_terminals)

    def module_rects(self) -> dict[str, Rect]:
        return {name: pm.rect for name, pm in self.placements.items()}

    def bounding_box(self, *, include_routes: bool = True) -> Rect:
        """Smallest rect enclosing modules, terminals and (optionally)
        routed nets."""
        rects = [pm.rect for pm in self.placements.values()]
        rects += [Rect(p.x, p.y, 0, 0) for p in self.terminal_positions.values()]
        if include_routes:
            for route in self.routes.values():
                for path in route.paths:
                    rects += [Rect(p.x, p.y, 0, 0) for p in path]
        if not rects:
            return Rect(0, 0, 0, 0)
        return bounding_rect(rects)

    # -- bookkeeping ----------------------------------------------------

    @property
    def unrouted_nets(self) -> list[str]:
        """Nets with no complete route yet (multi-pin nets only)."""
        out = []
        for net in self.network.nets.values():
            if len(net.pins) < 2:
                continue
            route = self.routes.get(net.name)
            if route is None or not route.complete:
                out.append(net.name)
        return out

    @property
    def failed_nets(self) -> list[str]:
        return [name for name, r in self.routes.items() if r.failed_pins]

    def copy_placement(self) -> "Diagram":
        """A fresh diagram sharing the network with this placement and no
        routes (used to re-route after manual edits, figure 6.5)."""
        out = Diagram(self.network)
        out.placements = {
            name: PlacedModule(pm.module, pm.position, pm.rotation)
            for name, pm in self.placements.items()
        }
        out.terminal_positions = dict(self.terminal_positions)
        return out
