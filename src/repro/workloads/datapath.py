"""Parameterised datapath generator for the scaling experiments.

Builds pipelines of ``lanes`` parallel register/ALU/mux chains of
``stages`` stages with a shared controller — structurally the kind of
synthesis intermediate the paper's generator was built for, with size
knobs so the complexity claims of sections 4.6.8 and 5.8 can be measured
as curves instead of anecdotes.
"""

from __future__ import annotations

from ..core.netlist import Network, TermType
from .stdlib import instantiate


def datapath_network(*, lanes: int = 2, stages: int = 3) -> Network:
    """A ``lanes x stages`` pipelined datapath with a controller.

    Modules: lanes*stages registers + (lanes per stage-boundary) muxes +
    one controller; nets: the pipeline chains, per-stage select lines and
    a clock-ish enable per lane.
    """
    if lanes < 1 or stages < 2:
        raise ValueError("need at least 1 lane and 2 stages")
    net = Network(name=f"datapath_{lanes}x{stages}")
    net.add_module(instantiate("controller", "ctl"))
    for lane in range(lanes):
        for stage in range(stages):
            net.add_module(instantiate("register", f"r{lane}_{stage}"))
        for stage in range(stages - 1):
            net.add_module(instantiate("mux2", f"m{lane}_{stage}"))

    net.add_system_terminal("start", TermType.IN)
    for lane in range(lanes):
        net.add_system_terminal(f"in{lane}", TermType.IN)
        net.add_system_terminal(f"out{lane}", TermType.OUT)

    net.connect("n_start", "start", "ctl.run")
    for lane in range(lanes):
        net.connect(f"feed{lane}", f"in{lane}", f"r{lane}_0.d")
        for stage in range(stages - 1):
            net.connect(
                f"q{lane}_{stage}", f"r{lane}_{stage}.q", f"m{lane}_{stage}.a"
            )
            net.connect(
                f"d{lane}_{stage}", f"m{lane}_{stage}.y", f"r{lane}_{stage + 1}.d"
            )
            # Cross-lane bypass into the mux's b input.
            other = (lane + 1) % lanes
            if other != lane:
                net.connect(f"q{other}_{stage}", f"m{lane}_{stage}.b")
        net.connect(
            f"tail{lane}", f"r{lane}_{stages - 1}.q", f"out{lane}"
        )
        # One controller enable per lane, fanned to the lane's registers
        # (the controller has ten enable pins; further lanes share nets
        # without a controller pin).
        for stage in range(stages):
            net.connect(f"en{lane}", (f"r{lane}_{stage}", "en"))
        if lane < 10:
            net.connect(f"en{lane}", ("ctl", f"c{lane}"))
    net.validate()
    return net


def datapath_sizes(points: list[tuple[int, int]] | None = None) -> list[Network]:
    """Networks for a standard scaling sweep."""
    points = points or [(1, 4), (2, 4), (2, 8), (3, 8)]
    return [datapath_network(lanes=lanes, stages=stages) for lanes, stages in points]

