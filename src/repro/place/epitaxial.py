"""Epitaxial-growth placement (section 4.2.2) — baseline.

The classic constructive layout placement: seed the placement with the
most-connected module, then repeatedly take the unplaced module with the
most connections to the placed structure and put it on the free grid slot
minimising total estimated wire length.  This is the class PABLO's own
placement descends from; the baseline lacks partitioning, strings,
rotation and signal-flow control, which is what the comparison measures.
"""

from __future__ import annotations

from ..core.diagram import Diagram
from ..core.geometry import Point
from ..core.netlist import Network
from .terminal_place import place_terminals


def epitaxial_placement(
    network: Network,
    *,
    seed: str | None = None,
    spacing: int = 4,
) -> Diagram:
    """Place all modules on a slot grid by epitaxial growth.

    ``seed`` optionally names the manually planted seed module (the paper:
    "by planting such a seed, the designer determines indirectly the
    placement of the whole part"); default is the most-connected module.
    """
    if not network.modules:
        return Diagram(network)
    pitch_x = max(m.width for m in network.modules.values()) + spacing
    pitch_y = max(m.height for m in network.modules.values()) + spacing

    names = sorted(network.modules)
    adjacency = network.adjacency()
    if seed is None:
        seed = max(
            names, key=lambda m: (adjacency.connections_to_set(m, names), m)
        )
    placed_slots: dict[str, tuple[int, int]] = {seed: (0, 0)}
    unplaced = [n for n in names if n != seed]

    while unplaced:
        module = max(
            unplaced,
            key=lambda m: (adjacency.connections_to_set(m, placed_slots), m),
        )
        unplaced.remove(module)
        slot = _best_slot(network, module, placed_slots)
        placed_slots[module] = slot

    diagram = Diagram(network)
    for name, (sx, sy) in placed_slots.items():
        module = network.modules[name]
        # Center the module in its slot.
        x = sx * pitch_x + (pitch_x - module.width) // 2
        y = sy * pitch_y + (pitch_y - module.height) // 2
        diagram.place_module(name, Point(x, y))
    place_terminals(diagram)
    return diagram


def _best_slot(
    network: Network, module: str, placed: dict[str, tuple[int, int]]
) -> tuple[int, int]:
    """Try every free slot in and around the placed bounding box and keep
    the one with the smallest total connection length."""
    taken = set(placed.values())
    xs = [s[0] for s in placed.values()]
    ys = [s[1] for s in placed.values()]
    candidates = [
        (x, y)
        for x in range(min(xs) - 1, max(xs) + 2)
        for y in range(min(ys) - 1, max(ys) + 2)
        if (x, y) not in taken
    ]

    weights = {
        other: network.connection_count(module, other) for other in placed
    }

    def cost(slot: tuple[int, int]) -> int:
        return sum(
            w * (abs(slot[0] - placed[o][0]) + abs(slot[1] - placed[o][1]))
            for o, w in weights.items()
            if w
        )

    return min(candidates, key=lambda s: (cost(s), s))
