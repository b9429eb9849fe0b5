"""Diagram legality checking and connectivity extraction.

Implements the postcondition of section 3.2:

* no module symbol or net path overlaps another module symbol or net path,
* a system terminal does not overlap a module or another system terminal,
* different nets only share pure crossing points,

plus the validation step the paper performed with the ESCHER+ simulator:
rebuilding the electrical connectivity from the routed geometry and
checking it equals the input net-list.

Both read each net's geometry from
:func:`~repro.core.geometry.net_geometry`: the pure-crossing test reads
the wire's arms and nodes at a shared point, and a net is connected
when a walk along its arms reaches every point it covers, so two wires
on adjacent tracks do not join.  The extraction follows the same walks:
each piece of wire is one electrical node.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .diagram import Diagram
from .geometry import ARMS, HORIZONTAL_ARMS, VERTICAL_ARMS, Point, net_geometry
from .netlist import Pin


class DiagramViolation(AssertionError):
    """Raised by :func:`check_diagram` when a diagram breaks the rules."""


#: The arms of two nets at a pure crossing: one runs straight across,
#: the other straight along.
_CROSSING = {HORIZONTAL_ARMS, VERTICAL_ARMS}


def placement_violations(diagram: Diagram) -> list[str]:
    """Rule violations of the placement alone (ignores routes)."""
    problems: list[str] = []
    placed = list(diagram.placements.values())
    for i, a in enumerate(placed):
        for b in placed[i + 1 :]:
            if a.rect.overlaps(b.rect):
                problems.append(
                    f"modules {a.name!r} and {b.name!r} overlap "
                    f"({a.rect} vs {b.rect})"
                )
    seen_terms: dict[Point, str] = {}
    for name, pos in diagram.terminal_positions.items():
        if pos in seen_terms:
            problems.append(
                f"system terminals {seen_terms[pos]!r} and {name!r} overlap at {pos}"
            )
        seen_terms[pos] = name
        for pm in placed:
            if pm.rect.contains(pos):
                problems.append(
                    f"system terminal {name!r} at {pos} overlaps module {pm.name!r}"
                )
    return problems


def routing_violations(diagram: Diagram) -> list[str]:
    """Rule violations of the routed nets."""
    problems: list[str] = []
    covered: dict[str, dict[Point, int]] = {}
    nodes: dict[str, set[Point]] = {}
    for name, route in diagram.routes.items():
        covered[name], nodes[name] = net_geometry(route.paths)

    # Every module point, with the modules on it and whether it lies
    # strictly inside each, in ``module_rects`` order.
    modules_at: dict[Point, list[tuple[str, bool]]] = defaultdict(list)
    for mod_name, r in diagram.module_rects().items():
        for x in range(r.x, r.x2 + 1):
            for y in range(r.y, r.y2 + 1):
                inside = r.x < x < r.x2 and r.y < y < r.y2
                modules_at[Point(x, y)].append((mod_name, inside))
    terminal_points = {
        pos: name for name, pos in diagram.terminal_positions.items()
    }
    for name, pts in covered.items():
        net = diagram.network.nets[name]
        allowed = {diagram.pin_position(p) for p in net.pins}
        net_system_terms = {p.terminal for p in net.system_pins}
        for p in pts:
            for mod_name, inside in modules_at.get(p, ()):
                if inside:
                    problems.append(f"net {name!r} runs inside module {mod_name!r} at {p}")
                elif p not in allowed:
                    problems.append(
                        f"net {name!r} touches module {mod_name!r} border at {p} "
                        "which is not one of its terminals"
                    )
            term = terminal_points.get(p)
            if term is not None and term not in net_system_terms:
                problems.append(
                    f"net {name!r} overlaps foreign system terminal {term!r} at {p}"
                )

    names = sorted(covered)
    point_to_nets: dict[Point, list[str]] = defaultdict(list)
    for name in names:
        for p in covered[name]:
            point_to_nets[p].append(name)
    for p, here in point_to_nets.items():
        if len(here) < 2:
            continue
        for i, a in enumerate(here):
            for b in here[i + 1 :]:
                # Off its nodes a wire's arms at a point span one whole
                # axis (or both, where the net crosses itself).
                pure_cross = (
                    {covered[a][p], covered[b][p]} == _CROSSING
                    and p not in nodes[a]
                    and p not in nodes[b]
                )
                if not pure_cross:
                    problems.append(
                        f"nets {a!r} and {b!r} overlap at {p} (not a pure crossing)"
                    )
    return problems


def connectivity_violations(diagram: Diagram) -> list[str]:
    """Check each routed net is one connected tree touching all its pins
    (this is what simulating the diagram would reveal)."""
    problems: list[str] = []
    for name, route in diagram.routes.items():
        net = diagram.network.nets[name]
        if route.failed_pins:
            continue  # incompleteness is reported by metrics, not here
        arms, _ = net_geometry(route.paths)
        if not arms and len(net.pins) >= 2:
            positions = {diagram.pin_position(p) for p in net.pins}
            if len(positions) > 1:
                problems.append(f"net {name!r} has no geometry but {len(net.pins)} pins")
            continue
        for pin in net.pins:
            if diagram.pin_position(pin) not in arms:
                problems.append(f"net {name!r} does not reach pin {pin}")
        if arms and not _is_connected(arms):
            problems.append(f"net {name!r} geometry is disconnected")
    return problems


def _is_connected(arms: dict[Point, int]) -> bool:
    """Whether one piece of wire joins every covered point."""
    return len(_pieces(arms)) == 1


def _pieces(arms: dict[Point, int]) -> list[set[Point]]:
    """A net's covered points split into pieces of wire: each walk
    follows the wire's arms, so parallel wires on adjacent tracks stay
    apart.  Points are plain ``(x, y)`` tuples past each piece's start,
    equal to the :class:`Point` keys of ``arms``."""
    pieces: list[set[Point]] = []
    seen: set[Point] = set()
    for start in arms:
        if start in seen:
            continue
        piece = {start}
        stack = [start]
        while stack:
            x, y = stack.pop()
            mask = arms[x, y]
            for bit, dx, dy in ARMS:
                if mask & bit:
                    q = (x + dx, y + dy)
                    if q not in piece:
                        piece.add(q)
                        stack.append(q)
        seen |= piece
        pieces.append(piece)
    return pieces


def check_diagram(diagram: Diagram, *, routed: bool = True) -> None:
    """Raise :class:`DiagramViolation` on any rule break."""
    problems = placement_violations(diagram)
    if routed:
        problems += routing_violations(diagram)
        problems += connectivity_violations(diagram)
    if problems:
        raise DiagramViolation("; ".join(problems[:20]))


def extract_connectivity(diagram: Diagram) -> dict[Pin, str]:
    """Rebuild pin→net connectivity from routed geometry alone.

    This is the reproduction of the paper's ESCHER+ check: the generator's
    output is electrically correct iff this mapping equals the net-list.
    Each routed net's geometry is split into its pieces of wire, walked
    along the wire's arms as :func:`connectivity_violations` walks them,
    and each pin maps to the piece on its position.  The piece holding a
    net's first pin keeps the net's name; every other piece is a node of
    its own, ``"<net><piece k>"``, so a net drawn as two unjoined wires
    extracts as two nodes.  A pin on pieces of several nets maps to
    ``"<conflict>"``.  Pins of unrouted or two-pin-degenerate nets are
    absent from the map.
    """
    pins_at: dict[Point, list[Pin]] = defaultdict(list)
    for net in diagram.network.nets.values():
        for pin in net.pins:
            pins_at[diagram.pin_position(pin)].append(pin)
    touching: dict[Point, list[str]] = defaultdict(list)
    for name, route in diagram.routes.items():
        arms, _ = net_geometry(route.paths)
        pins = route.net.pins
        first = diagram.pin_position(pins[0]) if pins else None
        k = 1
        for piece in _pieces(arms):
            if first in piece:
                node = name
            else:
                k += 1
                node = f"{name}<piece {k}>"
            for p in piece & pins_at.keys():
                touching[p].append(node)
    mapping: dict[Pin, str] = {}
    for p, nodes in touching.items():
        # A pin touched by several nets is electrically ambiguous.
        node = nodes[0] if len(nodes) == 1 else "<conflict>"
        for pin in pins_at[p]:
            mapping[pin] = node
    return mapping


def connectivity_matches_netlist(diagram: Diagram, *, nets: Iterable[str] | None = None) -> bool:
    """True iff extracted connectivity equals the net-list for the given
    nets (default: all fully routed nets)."""
    extracted = extract_connectivity(diagram)
    if nets is None:
        nets = [
            name
            for name, route in diagram.routes.items()
            if route.complete and len(route.net.pins) >= 2
        ]
    for name in nets:
        net = diagram.network.nets[name]
        for pin in net.pins:
            if extracted.get(pin) != name:
                return False
    return True
