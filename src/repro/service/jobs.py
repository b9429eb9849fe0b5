"""Job specifications for the batch generation service.

A :class:`JobSpec` wraps one place-and-route request — a network plus
:class:`PabloOptions` and :class:`RouterOptions` — as an immutable,
hashable value.  The network is *canonically normalized* on construction
(modules, terminals, nets and pins sorted by name) and stored as a JSON
string, so two specs describing the same design compare, hash and digest
identically regardless of how the network was built up.

Because module iteration order influences placement, jobs are always
executed on the network rebuilt from the canonical form
(:meth:`JobSpec.build_network`), never on the original object: the digest
then fully determines the generated diagram, which is what makes the
content-addressed result cache sound.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import get_args

from ..core.geometry import Point, Side
from ..core.netlist import Module, Network, TermType
from ..place.pablo import PabloOptions
from ..route.eureka import NetOrder, RouterOptions
from ..route.line_expansion import CostOrder


class JobError(ValueError):
    """Raised for malformed job specifications or manifests."""


# -- network canonical form -----------------------------------------------


def network_to_dict(network: Network) -> dict:
    """Canonical JSON-able form of a network (sorted, content-only)."""
    return {
        "name": network.name,
        "modules": [
            {
                "name": m.name,
                "template": m.template,
                "width": m.width,
                "height": m.height,
                "terminals": [
                    {
                        "name": t.name,
                        "type": t.type.value,
                        "x": t.offset.x,
                        "y": t.offset.y,
                    }
                    for t in sorted(m.terminals.values(), key=lambda t: t.name)
                ],
            }
            for m in sorted(network.modules.values(), key=lambda m: m.name)
        ],
        "system_terminals": [
            {"name": s.name, "type": s.type.value}
            for s in sorted(network.system_terminals.values(), key=lambda s: s.name)
        ],
        "nets": [
            {
                "name": n.name,
                "pins": sorted(
                    [[p.module, p.terminal] for p in n.pins],
                    key=lambda pin: (pin[0] or "", pin[1]),
                ),
            }
            for n in sorted(network.nets.values(), key=lambda n: n.name)
        ],
    }


def network_from_dict(data: dict) -> Network:
    """Rebuild a network from its canonical form (in canonical order)."""
    try:
        net = Network(name=data["name"])
        for m in data["modules"]:
            module = Module(
                name=m["name"],
                width=m["width"],
                height=m["height"],
                template=m["template"],
            )
            for t in m["terminals"]:
                module.add_terminal(t["name"], TermType(t["type"]), Point(t["x"], t["y"]))
            net.add_module(module)
        for s in data["system_terminals"]:
            net.add_system_terminal(s["name"], TermType(s["type"]))
        for n in data["nets"]:
            net.connect(n["name"], *[(p[0], p[1]) if p[0] else p[1] for p in n["pins"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise JobError(f"malformed network description: {exc}") from exc
    return net


# -- options <-> dict -----------------------------------------------------


def pablo_to_dict(options: PabloOptions) -> dict:
    d = {f.name: getattr(options, f.name) for f in fields(options)}
    if math.isinf(d["max_connections"]):
        d["max_connections"] = None
    return d


def pablo_from_dict(data: dict) -> PabloOptions:
    known = {f.name for f in fields(PabloOptions)}
    unknown = set(data) - known
    if unknown:
        raise JobError(f"unknown pablo option(s): {sorted(unknown)}")
    d = dict(data)
    if d.get("max_connections") is None and "max_connections" in d:
        d["max_connections"] = math.inf
    return PabloOptions(**d)


def router_to_dict(options: RouterOptions) -> dict:
    return {
        "claimpoints": options.claimpoints,
        "cost_order": options.cost_order.name,
        "margin": options.margin,
        "fixed_sides": sorted(s.name for s in options.fixed_sides),
        "retry_failed": options.retry_failed,
        "net_order": options.net_order,
        # The engine option and the bidirectional engine are gone; their
        # keys stay at the values the router implements, so the digests
        # of existing jobs, cache entries and journals stay valid.
        "engine": "state",
        "bidirectional": False,
    }


def router_from_dict(data: dict) -> RouterOptions:
    d = dict(data)
    if d.pop("bidirectional", False) is not False:
        raise JobError("eureka option bidirectional is no longer supported")
    # The interval-sweep and reference engines are gone too, and their
    # outputs differed from the state engine's, so a spec asking for
    # either is refused by name.
    if d.get("engine") in ("intervals", "reference"):
        raise JobError(f"eureka engine {d['engine']} is no longer supported")
    # Older specs and journal entries may ask for thread-parallel
    # routing.  That option never changed a job's output, so either value
    # is accepted and ignored: the job gets the routing it always got.
    d.pop("parallel_nets", None)
    known = {f.name for f in fields(RouterOptions)} | {"engine"}
    unknown = set(d) - known
    if unknown:
        raise JobError(f"unknown eureka option(s): {sorted(unknown)}")
    # A value the router does not implement would run the default path
    # under a digest of its own: refuse it instead.
    for name, allowed in (("engine", ("state",)), ("net_order", get_args(NetOrder))):
        if name in d and d[name] not in allowed:
            raise JobError(
                f"unknown eureka {name} {d[name]!r}: expected one of {list(allowed)}"
            )
    d.pop("engine", None)
    try:
        if "cost_order" in d:
            d["cost_order"] = CostOrder[d["cost_order"]]
        if "fixed_sides" in d:
            d["fixed_sides"] = frozenset(Side[name] for name in d["fixed_sides"])
    except KeyError as exc:
        raise JobError(f"unknown router enum value: {exc}") from exc
    return RouterOptions(**d)


# -- the job spec ---------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One generation request: canonical network + placement/routing knobs.

    ``name`` labels outputs and reports; it does **not** enter the digest,
    so two differently-named jobs over the same design share a cache entry.
    """

    name: str
    network_json: str = field(repr=False)
    pablo: PabloOptions = field(default_factory=PabloOptions)
    eureka: RouterOptions = field(default_factory=RouterOptions)

    @classmethod
    def from_network(
        cls,
        network: Network,
        pablo: PabloOptions | None = None,
        eureka: RouterOptions | None = None,
        *,
        name: str | None = None,
    ) -> "JobSpec":
        network.validate()
        canonical = json.dumps(
            network_to_dict(network), sort_keys=True, separators=(",", ":")
        )
        return cls(
            name=name or network.name,
            network_json=canonical,
            pablo=pablo or PabloOptions(),
            eureka=eureka or RouterOptions(),
        )

    @property
    def digest(self) -> str:
        """Stable content address of the work: network and options, not
        the name."""
        blob = json.dumps(
            {
                "network": json.loads(self.network_json),
                "pablo": pablo_to_dict(self.pablo),
                "eureka": router_to_dict(self.eureka),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def build_network(self) -> Network:
        """The canonical network this job runs on."""
        return network_from_dict(json.loads(self.network_json))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "network": json.loads(self.network_json),
            "pablo": pablo_to_dict(self.pablo),
            "eureka": router_to_dict(self.eureka),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        try:
            network = data["network"]
            name = data.get("name") or network.get("name", "job")
        except (TypeError, AttributeError) as exc:
            raise JobError(f"malformed job spec: {exc}") from exc
        # Round-trip through the model so hand-written manifests are
        # normalized (and validated) exactly like API-built specs.
        net = network_from_dict(network)
        net.validate()
        return cls.from_network(
            net,
            pablo_from_dict(data.get("pablo", {})),
            router_from_dict(data.get("eureka", {})),
            name=name,
        )
