"""Workloads: the paper's example networks, LIFE and random generators."""

from .examples import example1_string, example2_controller
from .life import (
    GLIDER,
    hand_placement,
    life_network,
    reference_life_run,
    reference_life_step,
)
from .random_nets import RandomNetworkSpec, random_network
from .batch import BatchWorkloadSpec, batch_networks, workload_from_dict
from .congestion import facing_pairs_diagram
from .datapath import datapath_network, datapath_sizes
from .stdlib import TEMPLATES, instantiate, make_module

__all__ = [
    "example1_string",
    "example2_controller",
    "GLIDER",
    "hand_placement",
    "life_network",
    "reference_life_run",
    "reference_life_step",
    "RandomNetworkSpec",
    "random_network",
    "BatchWorkloadSpec",
    "batch_networks",
    "workload_from_dict",
    "facing_pairs_diagram",
    "datapath_network",
    "datapath_sizes",
    "TEMPLATES",
    "instantiate",
    "make_module",
]
