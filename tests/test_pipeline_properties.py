"""Whole-pipeline invariants over seeded random networks.

For any generated network, with claims on or off, the pipeline must
produce a diagram that (a) passes every legality rule, (b) whose
extracted connectivity equals the net-list for the routed nets, and (c)
survives an ESCHER round-trip geometrically intact.
"""

import pytest

from repro.core.generator import generate
from repro.core.metrics import diagram_metrics
from repro.core.validate import (
    check_diagram,
    connectivity_matches_netlist,
    routing_violations,
)
from repro.formats.escher import read_escher, write_escher
from repro.obs.congestion import CongestionMap
from repro.place.pablo import PabloOptions
from repro.route.eureka import RouterOptions
from repro.route.plane import Plane
from repro.workloads.random_nets import random_network

SEEDS = [0, 3, 7, 11]
PABLO = PabloOptions(partition_size=4, box_size=3)


def _geometry(diagram):
    return {
        name: frozenset(route.points()) for name, route in diagram.routes.items()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_diagram_invariants(seed):
    # Every connection searches under the cost-to-go field built from the
    # plane index's buffers.
    net = random_network(modules=10, extra_nets=5, seed=seed)
    result = generate(net, PABLO, RouterOptions(margin=6))
    check_diagram(result.diagram)
    assert connectivity_matches_netlist(result.diagram)
    metrics = diagram_metrics(result.diagram)
    assert metrics.nets_routed + metrics.nets_failed == metrics.nets_total
    # Sanity on metric consistency.
    assert metrics.length >= 0 and metrics.bends >= 0
    # The congestion map counts the same crossovers, and the same wire
    # occupancy as the index of a plane built from the diagram.
    cmap = CongestionMap.from_diagram(result.diagram)
    assert cmap.crossover_total == metrics.crossovers
    assert cmap.occupancy_total == sum(Plane.for_diagram(result.diagram).index.occ)


@pytest.mark.parametrize("seed", SEEDS)
def test_escher_roundtrip_preserves_everything(seed):
    net = random_network(modules=9, extra_nets=4, seed=seed)
    result = generate(net, PABLO, RouterOptions(margin=6))
    original = result.diagram
    again = read_escher(write_escher(original), net)
    assert {m: p.position for m, p in again.placements.items()} == {
        m: p.position for m, p in original.placements.items()
    }
    assert {m: p.rotation for m, p in again.placements.items()} == {
        m: p.rotation for m, p in original.placements.items()
    }
    assert again.terminal_positions == original.terminal_positions
    assert _geometry(again) == _geometry(original)
    # The round-tripped diagram obeys the same rules.
    assert routing_violations(again) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_claims_never_reduce_success_on_generated_placements(seed):
    net = random_network(modules=10, extra_nets=5, seed=seed)
    with_claims = generate(net, PABLO, RouterOptions(margin=6, claimpoints=True))
    net2 = random_network(modules=10, extra_nets=5, seed=seed)
    without = generate(net2, PABLO, RouterOptions(margin=6, claimpoints=False))
    assert (
        with_claims.metrics.nets_routed >= without.metrics.nets_routed
    )
