"""Rip-up-and-reroute: the paper's manual completion flow, iterated.

In example 3 the paper finishes the two unroutable LIFE nets by hand:
"After adjusting some nets by hand, the routing program was started again
to complete the diagram."  :func:`~repro.route.eureka.route_diagram`
already runs one bounded rip-up pass on its live plane.  This module
repeats the flow over a routed diagram until it completes: for every
failed net, rip up the routed nets whose geometry crowds the failed
terminals (:func:`~repro.route.eureka.blockers_near`, prerouted nets
included), then run EUREKA again over everything unrouted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.diagram import Diagram
from .eureka import (
    RIP_PER_NET,
    RIP_RADIUS,
    RouterOptions,
    blockers_near,
    route_diagram,
)


@dataclass
class RipupReport:
    """What the completion loop did."""

    iterations: int = 0
    ripped_nets: list[str] = field(default_factory=list)
    still_failed: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.still_failed


def reroute_failed(
    diagram: Diagram,
    options: RouterOptions | None = None,
    *,
    max_iterations: int = 4,
    radius: int = RIP_RADIUS,
    rip_per_net: int = RIP_PER_NET,
) -> RipupReport:
    """Complete a mostly-routed diagram by ripping up local blockers of
    each failed net and rerouting.  Mutates the diagram in place."""
    options = options or RouterOptions()
    report = RipupReport()
    for _ in range(max_iterations):
        failed = [
            name for name, route in diagram.routes.items() if route.failed_pins
        ] + [
            name
            for name in diagram.unrouted_nets
            if name not in diagram.routes or not diagram.routes[name].paths
        ]
        failed = sorted(set(failed))
        if not failed:
            break
        report.iterations += 1
        for name in failed:
            for blocker in blockers_near(diagram, name, radius, rip_per_net):
                diagram.routes.pop(blocker, None)
                report.ripped_nets.append(blocker)
            diagram.routes.pop(name, None)
        # The previously failed nets route first, onto the freed tracks;
        # the ripped blockers then route around them.
        route_diagram(diagram, options, only_nets=failed)
        route_diagram(diagram, options)
    report.still_failed = sorted(
        set(
            [n for n, r in diagram.routes.items() if r.failed_pins]
            + diagram.unrouted_nets
        )
    )
    return report
