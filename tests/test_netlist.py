"""Unit tests for the network data model."""

import pytest

from repro.core.geometry import Point, Side
from repro.core.netlist import (
    Module,
    NetlistError,
    Network,
    Pin,
    TermType,
)
from repro.workloads.random_nets import RandomNetworkSpec, random_network
from repro.workloads.stdlib import instantiate, make_module


class TestTermType:
    def test_parse(self):
        assert TermType.parse("in") is TermType.IN
        assert TermType.parse(" OUT ") is TermType.OUT
        assert TermType.parse("inout") is TermType.INOUT
        with pytest.raises(NetlistError):
            TermType.parse("sideways")

    def test_drive_listen(self):
        assert TermType.OUT.drives and not TermType.OUT.listens
        assert TermType.IN.listens and not TermType.IN.drives
        assert TermType.INOUT.drives and TermType.INOUT.listens


class TestModule:
    def test_terminal_must_be_on_outline(self):
        m = Module("m", 4, 4)
        with pytest.raises(NetlistError):
            m.add_terminal("bad", TermType.IN, Point(2, 2))
        with pytest.raises(NetlistError):
            m.add_terminal("bad", TermType.IN, Point(9, 0))

    def test_duplicate_terminal(self):
        m = Module("m", 4, 4)
        m.add_terminal("a", TermType.IN, Point(0, 1))
        with pytest.raises(NetlistError):
            m.add_terminal("a", TermType.IN, Point(0, 2))

    def test_non_positive_size(self):
        with pytest.raises(NetlistError):
            Module("m", 0, 4)

    def test_side(self):
        m = make_module(
            "m", 4, 4, [("l", "in", 0, 2), ("u", "out", 2, 4), ("d", "in", 2, 0)]
        )
        assert m.side("l") is Side.LEFT
        assert m.side("u") is Side.UP
        assert m.side("d") is Side.DOWN
        assert [t.name for t in m.terminals_on(Side.LEFT)] == ["l"]

    def test_template_defaults_to_name(self):
        assert Module("alone", 2, 2).template == "alone"


class TestNetworkConstruction:
    def test_duplicate_module(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        with pytest.raises(NetlistError):
            net.add_module(instantiate("inv", "u"))

    def test_connect_string_forms(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.add_system_terminal("t", TermType.IN)
        n = net.connect("n", "u.a", "t", ("u", "y"))
        assert Pin("u", "a") in n.pins
        assert Pin(None, "t") in n.pins
        assert Pin("u", "y") in n.pins

    def test_connect_rejects_unknown(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        with pytest.raises(NetlistError):
            net.connect("n", "nosuch.a")
        with pytest.raises(NetlistError):
            net.connect("n", "u.nosuch")
        with pytest.raises(NetlistError):
            net.connect("n", "ghost_terminal")

    def test_connect_is_idempotent_per_pin(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.connect("n", "u.a")
        net.connect("n", "u.a")
        assert len(net.nets["n"].pins) == 1


class TestNetworkQueries:
    @pytest.fixture
    def trio(self) -> Network:
        net = Network()
        for name in ("a", "b", "c"):
            net.add_module(instantiate("and2", name))
        net.connect("n0", "a.y", "b.a")
        net.connect("n1", "a.a", "b.b")  # a and b share two nets
        net.connect("n2", "b.y", "c.a")
        return net

    def test_connected(self, trio):
        assert trio.connected("a", "b", "n0")
        assert not trio.connected("a", "c", "n0")

    def test_connection_count(self, trio):
        assert trio.connection_count("a", "b") == 2
        assert trio.connection_count("b", "c") == 1
        assert trio.connection_count("a", "c") == 0
        assert trio.connection_count("a", "a") == 0

    def test_connections_to_set(self, trio):
        # The network and a snapshot of it answer alike.
        for counts in (trio, trio.adjacency()):
            assert counts.connections_to_set("a", {"b", "c"}) == 2
            assert counts.connections_to_set("c", {"a"}) == 0
            assert counts.connections_to_set("b", {"a", "c"}) == 3
            assert counts.connections_to_set("a", ["a", "b"]) == 2  # never itself
            assert counts.connections_to_set("ghost", {"a"}) == 0

    def test_external_connections(self, trio):
        for counts in (trio, trio.adjacency()):
            assert counts.external_connections({"a", "b"}) == 1  # only n2 leaves
            assert counts.external_connections({"a", "b", "c"}) == 0
            assert counts.external_connections({"b"}) == 3
            assert counts.external_connections([]) == 0

    def test_external_counts_system_pins(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.add_system_terminal("t", TermType.IN)
        net.connect("n", "u.a", "t")
        assert net.external_connections({"u"}) == 1
        assert net.adjacency().external_connections({"u"}) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_snapshot_matches_brute_force(self, seed):
        net = random_network(
            RandomNetworkSpec(modules=6 + 2 * seed, system_terminals=3, seed=seed)
        )
        assert any(n.system_pins for n in net.nets.values())
        snapshot = net.adjacency()
        names = sorted(net.modules)

        def mods(n):
            return {p.module for p in n.pins if not p.is_system}

        for i, module in enumerate(names):
            others = set(names[i % 3 :: 3])  # sometimes holds ``module``
            want = sum(
                1 for n in net.nets.values()
                if module in mods(n) and mods(n) & (others - {module})
            )
            assert snapshot.connections_to_set(module, others) == want
            members = set(names[: i + 1])
            want = sum(
                1 for n in net.nets.values()
                if mods(n) & members and (mods(n) - members or n.system_pins)
            )
            assert snapshot.external_connections(members) == want
            assert snapshot.pins_of_module(module) == list(net.pins_of_module(module))

    def test_snapshot_does_not_follow_edits(self, trio):
        snapshot = trio.adjacency()
        del trio.nets["n2"]
        assert trio.external_connections({"a", "b"}) == 0
        assert snapshot.external_connections({"a", "b"}) == 1
        assert trio.adjacency() is not trio.adjacency()

    def test_net_of_and_pins_of_module(self, trio):
        assert trio.net_of(Pin("a", "y")).name == "n0"
        assert trio.net_of(Pin("c", "y")) is None
        assert trio.nets_of_module("b") == {"n0", "n1", "n2"}

    def test_pin_type(self, trio):
        assert trio.pin_type(Pin("a", "y")) is TermType.OUT
        trio.add_system_terminal("s", TermType.INOUT)
        assert trio.pin_type(Pin(None, "s")) is TermType.INOUT


class TestValidation:
    def test_single_pin_net_rejected(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.connect("n", "u.a")
        with pytest.raises(NetlistError, match="fewer than two"):
            net.validate()

    def test_pin_on_two_nets_rejected(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.add_module(instantiate("buf", "v"))
        net.add_module(instantiate("buf", "w"))
        net.connect("n0", "u.a", "v.y")
        net.connect("n1", "u.a", "w.y")
        with pytest.raises(NetlistError, match="both net"):
            net.validate()

    def test_stats(self, two_buffer_network):
        assert two_buffer_network.stats == {
            "modules": 2,
            "nets": 3,
            "system_terminals": 2,
            "pins": 6,
        }
