"""Routing: the line-expansion router (EUREKA) and baselines."""

from .plane import DEFAULT_MARGIN, Plane
from .line_expansion import (
    CostOrder,
    RouteResult,
    SearchStats,
    route_connection,
    start_directions_for,
)
from .claimpoints import place_claims, release_net_claims
from .eureka import RouterOptions, RoutingReport, route_diagram
from .lee import route_lee
from .hightower import route_hightower
from .channel import ChannelPin, ChannelRoute, channel_density, route_channel
from .ripup import RipupReport, reroute_failed
from .index import NetView, PlaneIndex
from .reference import route_connection_reference

__all__ = [
    "DEFAULT_MARGIN",
    "Plane",
    "CostOrder",
    "RouteResult",
    "SearchStats",
    "route_connection",
    "start_directions_for",
    "place_claims",
    "release_net_claims",
    "RouterOptions",
    "RoutingReport",
    "route_diagram",
    "route_lee",
    "route_hightower",
    "ChannelPin",
    "ChannelRoute",
    "channel_density",
    "route_channel",
    "RipupReport",
    "reroute_failed",
    "NetView",
    "PlaneIndex",
    "route_connection_reference",
]
