"""The claimpoint extension (section 5.7).

Every subsystem terminal that still has to be connected claims the first
grid point of the track just outside its module side.  Claims act as
module-type obstacles for every other net, so no net can wall a terminal
in before its own net is routed.  A terminal's claims are removed the
moment routing of its net starts; any remaining claims are removed before
the rip-up pass.  The paper reports this cuts the number of
unroutable nets by roughly 75%.
"""

from __future__ import annotations

from typing import Hashable

from ..core.diagram import Diagram
from ..core.netlist import Pin
from ..obs import counters
from .plane import Plane


def claim_owner(net: str, pin: Pin) -> Hashable:
    return ("claim", net, pin)


def place_claims(plane: Plane, diagram: Diagram, nets: list[str]) -> int:
    """Claim the nearest track point for every pin of every given net.

    Returns the number of claims actually placed (occupied points are
    skipped silently — their terminal is already crowded)."""
    placed = 0
    for net_name in nets:
        net = diagram.network.nets[net_name]
        for pin in net.pins:
            position = diagram.pin_position(pin)
            side = diagram.pin_side(pin)
            if side is None:
                continue  # system terminals sit on the open border already
            claim_point = position.step(side.outward)
            if plane.add_claim(claim_point, claim_owner(net_name, pin)):
                placed += 1
    counters.inc("route.claims_placed", placed)
    return placed


def release_net_claims(plane: Plane, net_name: str, pins: list[Pin]) -> None:
    released = plane.release_claims(claim_owner(net_name, pin) for pin in pins)
    counters.inc("route.claims_released", released)
