"""The network (net-list) data model.

This is the paper's nine-tuple design representation (section 4.6.2):

    (M, N, ST, T, terms, type, position-terminal, net, size)

realised as plain Python objects:

* :class:`Module` — a subsystem instance with a size and a set of
  :class:`Terminal` s positioned on its perimeter,
* :class:`SystemTerminal` — an external connection point of the network,
* :class:`Net` — a set of :class:`Pin` references (subsystem and/or system
  terminals) that must become electrically common,
* :class:`Network` — the whole design, with the derived ``side`` and
  ``connected`` functions from the paper as methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
from typing import Iterable, Iterator, Mapping

from .geometry import Point, Rect, Side


class TermType(enum.Enum):
    """Electrical direction of a terminal."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @classmethod
    def parse(cls, text: str) -> "TermType":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise NetlistError(f"unknown terminal type {text!r}") from None

    @property
    def drives(self) -> bool:
        return self is not TermType.IN

    @property
    def listens(self) -> bool:
        return self is not TermType.OUT


class NetlistError(ValueError):
    """Raised for malformed or inconsistent network descriptions."""


@dataclass(frozen=True)
class Terminal:
    """A subsystem terminal: a named connection point on a module border.

    ``offset`` is the position relative to the module's lower-left corner
    (the paper's ``position-terminal``) and must lie on the module outline.
    """

    name: str
    type: TermType
    offset: Point


@dataclass
class Module:
    """A subsystem instance: a rectangle with terminals on its outline."""

    name: str
    width: int
    height: int
    terminals: dict[str, Terminal] = field(default_factory=dict)
    template: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise NetlistError(f"module {self.name!r} has non-positive size")
        for term in self.terminals.values():
            self._check_terminal(term)
        if not self.template:
            self.template = self.name

    def _check_terminal(self, term: Terminal) -> None:
        if self.outline.side_of(term.offset) is None:
            raise NetlistError(
                f"terminal {term.name!r} of module {self.name!r} at "
                f"{term.offset} is not on the module outline "
                f"({self.width}x{self.height})"
            )

    @property
    def outline(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    def add_terminal(self, name: str, type: TermType, offset: Point) -> Terminal:
        if name in self.terminals:
            raise NetlistError(f"duplicate terminal {name!r} on module {self.name!r}")
        term = Terminal(name, type, offset)
        self._check_terminal(term)
        self.terminals[name] = term
        return term

    def side(self, terminal: str) -> Side:
        """The module side a terminal sits on (paper's ``side`` function)."""
        side = self.outline.side_of(self.terminals[terminal].offset)
        assert side is not None  # enforced at construction
        return side

    def terminals_on(self, side: Side) -> list[Terminal]:
        return [t for t in self.terminals.values() if self.side(t.name) is side]


@dataclass(frozen=True)
class SystemTerminal:
    """An external terminal of the whole network."""

    name: str
    type: TermType


@dataclass(frozen=True, order=True)
class Pin:
    """A reference to a connection point of a net.

    ``module is None`` means the pin is the system terminal ``terminal``
    (the net-list files spell this with the instance name ``root``).
    """

    module: str | None
    terminal: str

    @property
    def is_system(self) -> bool:
        return self.module is None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.terminal if self.module is None else f"{self.module}.{self.terminal}"


@dataclass
class Net:
    """A net: the set of pins that must be interconnected."""

    name: str
    pins: list[Pin] = field(default_factory=list)

    def add_pin(self, pin: Pin) -> None:
        if pin not in self.pins:
            self.pins.append(pin)

    @property
    def module_pins(self) -> list[Pin]:
        return [p for p in self.pins if not p.is_system]

    @property
    def system_pins(self) -> list[Pin]:
        return [p for p in self.pins if p.is_system]


@dataclass
class Network:
    """A complete design: modules, system terminals and nets."""

    name: str = "network"
    modules: dict[str, Module] = field(default_factory=dict)
    system_terminals: dict[str, SystemTerminal] = field(default_factory=dict)
    nets: dict[str, Net] = field(default_factory=dict)

    # -- construction -------------------------------------------------

    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise NetlistError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        return module

    def add_system_terminal(self, name: str, type: TermType) -> SystemTerminal:
        if name in self.system_terminals:
            raise NetlistError(f"duplicate system terminal {name!r}")
        st = SystemTerminal(name, type)
        self.system_terminals[name] = st
        return st

    def connect(self, net_name: str, *pins: Pin | str | tuple[str, str]) -> Net:
        """Attach pins to a net, creating the net if needed.

        Pins may be :class:`Pin` objects, ``"module.terminal"`` strings, a
        bare system-terminal name, or ``(module, terminal)`` tuples.
        """
        net = self.nets.get(net_name)
        if net is None:
            net = Net(net_name)
            self.nets[net_name] = net
        for raw in pins:
            net.add_pin(self._coerce_pin(raw))
        return net

    def _coerce_pin(self, raw: Pin | str | tuple[str, str]) -> Pin:
        if isinstance(raw, Pin):
            pin = raw
        elif isinstance(raw, tuple):
            pin = Pin(raw[0], raw[1])
        elif "." in raw:
            module, terminal = raw.split(".", 1)
            pin = Pin(module, terminal)
        else:
            pin = Pin(None, raw)
        self._check_pin(pin)
        return pin

    def _check_pin(self, pin: Pin) -> None:
        if pin.is_system:
            if pin.terminal not in self.system_terminals:
                raise NetlistError(f"unknown system terminal {pin.terminal!r}")
        else:
            module = self.modules.get(pin.module or "")
            if module is None:
                raise NetlistError(f"unknown module {pin.module!r}")
            if pin.terminal not in module.terminals:
                raise NetlistError(
                    f"unknown terminal {pin.terminal!r} on module {pin.module!r}"
                )

    # -- lookups ------------------------------------------------------

    def pin_type(self, pin: Pin) -> TermType:
        if pin.is_system:
            return self.system_terminals[pin.terminal].type
        return self.modules[pin.module].terminals[pin.terminal].type

    def net_of(self, pin: Pin) -> Net | None:
        """The net attached to a pin (the paper's ``net`` relation)."""
        for net in self.nets.values():
            if pin in net.pins:
                return net
        return None

    def pins_of_module(self, module: str) -> Iterator[tuple[Net, Pin]]:
        for net in self.nets.values():
            for pin in net.pins:
                if pin.module == module:
                    yield net, pin

    def nets_of_module(self, module: str) -> set[str]:
        return {net.name for net, _pin in self.pins_of_module(module)}

    def connected(self, m0: str, m1: str, net: str) -> bool:
        """The paper's ``connected`` relation: do ``m0`` and ``m1`` both
        have a terminal on ``net``?"""
        pins = self.nets[net].pins
        return any(p.module == m0 for p in pins) and any(p.module == m1 for p in pins)

    def connection_count(self, m0: str, m1: str) -> int:
        """Number of nets connecting two distinct modules."""
        if m0 == m1:
            return 0
        return sum(1 for net in self.nets.values() if self.connected(m0, m1, net.name))

    def connections_to_set(self, module: str, others: Iterable[str]) -> int:
        """Number of nets connecting ``module`` to any module in ``others``."""
        return self.adjacency().connections_to_set(module, others)

    def external_connections(self, members: Iterable[str]) -> int:
        """Number of nets leaving the module set ``members`` (paper's
        partition ``connections`` limit)."""
        return self.adjacency().external_connections(members)

    def adjacency(self) -> "Adjacency":
        """Index which modules each net touches, in one pass over the pins.

        The result is a snapshot, not a cache: the network does not keep
        it, and it does not follow later edits (``core/hierarchy`` deletes
        nets in place).  A pass that asks many connection questions takes
        one snapshot at its start and asks it instead of the network.
        """
        net_modules: dict[str, frozenset[str]] = {}
        module_pins: dict[str, list[tuple[Net, Pin]]] = {}
        module_nets: dict[str, list[str]] = {}
        system_nets: set[str] = set()
        for net in self.nets.values():
            mods: set[str] = set()
            for pin in net.pins:
                if pin.module is None:
                    system_nets.add(net.name)
                else:
                    mods.add(pin.module)
                    module_pins.setdefault(pin.module, []).append((net, pin))
            net_modules[net.name] = frozenset(mods)
            for module in mods:
                module_nets.setdefault(module, []).append(net.name)
        return Adjacency(net_modules, module_pins, module_nets, frozenset(system_nets))

    # -- validation ---------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling pins or empty nets."""
        for net in self.nets.values():
            if len(net.pins) < 2:
                raise NetlistError(f"net {net.name!r} connects fewer than two pins")
            for pin in net.pins:
                self._check_pin(pin)
        seen: dict[Pin, str] = {}
        for net in self.nets.values():
            for pin in net.pins:
                if pin in seen and seen[pin] != net.name:
                    raise NetlistError(
                        f"pin {pin} is on both net {seen[pin]!r} and net {net.name!r}"
                    )
                seen[pin] = net.name

    @property
    def stats(self) -> Mapping[str, int]:
        return {
            "modules": len(self.modules),
            "nets": len(self.nets),
            "system_terminals": len(self.system_terminals),
            "pins": sum(len(n.pins) for n in self.nets.values()),
        }


@dataclass(frozen=True)
class Adjacency:
    """The module/net incidence of a :class:`Network` at one moment.

    Built by :meth:`Network.adjacency`; see there for why it is a snapshot
    and not a cache.
    """

    #: net name -> the modules with a pin on it
    net_modules: Mapping[str, frozenset[str]]
    #: module name -> its (net, pin) pairs, in :meth:`Network.pins_of_module` order
    module_pins: Mapping[str, list[tuple[Net, Pin]]]
    #: module name -> the nets it has a pin on, each once, in net order
    module_nets: Mapping[str, list[str]]
    #: the nets with a system pin
    system_nets: frozenset[str]

    def pins_of_module(self, module: str) -> list[tuple[Net, Pin]]:
        return self.module_pins.get(module, [])

    def connections_to_set(self, module: str, others: Iterable[str]) -> int:
        """Number of nets connecting ``module`` to any module in ``others``."""
        others = set(others)
        others.discard(module)
        return sum(
            not self.net_modules[net].isdisjoint(others)
            for net in self.module_nets.get(module, ())
        )

    def external_connections(self, members: Iterable[str]) -> int:
        """Number of nets leaving the module set ``members`` (paper's
        partition ``connections`` limit): nets of a member that reach a
        module outside it or a system terminal."""
        members = set(members)
        nets = {net for m in members for net in self.module_nets.get(m, ())}
        return sum(
            net in self.system_nets or not self.net_modules[net] <= members
            for net in nets
        )
