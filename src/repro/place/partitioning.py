"""Partitioning the design (section 4.6.3).

The placement first decomposes the module set into functional partitions:
pick a seed (the free module most heavily connected to the remaining free
modules), then grow a cluster around it until the partition size limit or
the external-connection limit is hit, then start over with a new seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.netlist import Adjacency, Network


@dataclass(frozen=True)
class PartitionLimits:
    """The -p and -c options of PABLO (Appendix E)."""

    max_size: int = 1
    max_connections: float = math.inf

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ValueError("partition size limit must be at least 1")


def take_a_seed(
    network: Network,
    free: set[str],
    placed: set[str],
    *,
    adjacency: Adjacency | None = None,
) -> str:
    """TAKE_A_SEED: the free module with the most nets to other free
    modules; ties prefer fewest nets to already-partitioned modules, then
    lexicographic order for determinism.  ``adjacency`` is a snapshot of
    ``network`` to count on (one is taken when it is omitted)."""
    adjacency = adjacency or network.adjacency()

    def key(module: str) -> tuple[int, int, str]:
        # A module never counts as its own connection.
        to_free = adjacency.connections_to_set(module, free)
        to_placed = adjacency.connections_to_set(module, placed)
        return (-to_free, to_placed, module)

    return min(free, key=key)


def form_partition(
    network: Network,
    free: set[str],
    seed: str,
    limits: PartitionLimits,
    *,
    adjacency: Adjacency | None = None,
) -> list[str]:
    """FORM_PARTITION: grow a cluster around ``seed`` out of ``free``
    (which the call consumes) until a limit trips."""
    adjacency = adjacency or network.adjacency()
    partition = [seed]
    free.discard(seed)
    connections = adjacency.external_connections(partition)
    while (
        free
        and len(partition) < limits.max_size
        and connections < limits.max_connections
    ):
        member_set = set(partition)
        outside = set(network.modules) - member_set

        def key(module: str) -> tuple[int, int, str]:
            inward = adjacency.connections_to_set(module, member_set)
            outward = adjacency.connections_to_set(module, outside)
            return (-inward, outward, module)

        best = min(free, key=key)
        partition.append(best)
        free.discard(best)
        connections = adjacency.external_connections(partition)
    return partition


def partition_network(
    network: Network,
    limits: PartitionLimits | None = None,
    *,
    exclude: set[str] | None = None,
    adjacency: Adjacency | None = None,
) -> list[list[str]]:
    """PARTITIONING: split all modules (minus ``exclude``, the preplaced
    part) into functional partitions."""
    limits = limits or PartitionLimits()
    adjacency = adjacency or network.adjacency()
    free = set(network.modules) - (exclude or set())
    placed: set[str] = set()
    partitions: list[list[str]] = []
    while free:
        seed = take_a_seed(network, free, placed, adjacency=adjacency)
        partition = form_partition(network, free, seed, limits, adjacency=adjacency)
        partitions.append(partition)
        placed.update(partition)
    return partitions
