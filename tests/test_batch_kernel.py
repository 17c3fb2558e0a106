"""Fabric-state and route-cache tests.

The :class:`FabricState` arrays are the dataplane both router sweeps
(native and Python) read and write; they must round-trip through a
checkpoint bit for bit.  The route table is derived state, filled on
demand by Python (``Network.route``) and read by the native sweep, that
must never reach a checkpoint.
"""

import pytest

from repro.noc import Network, NocConfig, native
from repro.noc.traffic import SyntheticTraffic, TrafficConfig

needs_native = pytest.mark.skipif(
    native.load()[0] is None,
    reason=f"native sweep unavailable: {native.load()[1]}",
)


def make_network(native_sweep=True, **kwargs):
    return Network(NocConfig(**kwargs), native_sweep=native_sweep)


def _traffic_run(cycles=700):
    network = make_network()
    SyntheticTraffic(network, TrafficConfig(injection_rate=0.05, seed=11)).run(
        cycles
    )
    return network


class TestFabricState:
    def test_roundtrip_is_bit_identical(self):
        """FabricState.state_dict -> load_state restores every array
        byte-for-byte."""
        from repro.noc.fabric_state import VC_FIELDS

        network = _traffic_run()
        state = network.fabric.state_dict()
        fresh = make_network()
        fresh.fabric.load_state(state)
        for field in VC_FIELDS:
            assert getattr(fresh.fabric, field).tolist() == (
                getattr(network.fabric, field).tolist()
            )
        assert fresh.fabric.eject_tokens.tolist() == (
            network.fabric.eject_tokens.tolist()
        )

    def test_eject_tokens_alias_survives_restore(self):
        """``Network._eject_tokens`` must stay an alias of the fabric
        array across state loads (never reassigned)."""
        network = _traffic_run()
        network.load_state(network.state_dict())
        assert network._eject_tokens is network.fabric.eject_tokens


class TestRouteCache:
    @pytest.mark.parametrize("topology", ["mesh", "torus", "ring", "cmesh"])
    def test_route_table_fills_on_demand(self, topology):
        """The table starts empty (-1 everywhere) and ``route()`` fills
        exactly the pairs asked for, with the routing function's
        decision."""
        shape = {"mesh": (4, 4), "cmesh": (2, 1)}.get(topology, (3, 2))
        network = Network(NocConfig(width=shape[0], height=shape[1],
                                    topology=topology, vcs_per_vnet=2))
        n = network.topology.n_nodes
        assert set(network.route_table) == {-1}
        asked = [(src, dst) for src in range(n) for dst in range(n)
                 if (src * 7 + dst) % 3 == 0]
        for src, dst in asked:
            expected = network.routing.fn(network.topology, src, dst)
            assert network.route(src, dst) == tuple(expected)
            assert network.route(src, dst) == tuple(expected)  # a hit
        filled = {divmod(key, n) for key, packed in
                  enumerate(network.route_table) if packed != -1}
        assert filled == set(asked)

    @needs_native
    def test_table_misses_of_the_native_sweep_match_route(self):
        """Pairs the native sweep missed in the table and Python filled
        hold the routing function's decision, and a second run on the
        same network resolves every route in C without a miss."""
        from repro.noc import native

        network = _traffic_run()
        assert network.native_sweep is not None
        n = network.topology.n_nodes
        filled = [(divmod(key, n), packed) for key, packed in
                  enumerate(network.route_table) if packed != -1]
        assert filled
        fresh = make_network(native_sweep=False)
        for (src, dst), packed in filled:
            out_port, vc_class = fresh.route(src, dst)
            assert packed == out_port << 2 | (
                0 if vc_class is None else vc_class + 1
            )
        misses = []
        replay = native.NativeSweep._replay

        def counted(sweep, count):
            events = sweep._events
            misses.extend(j for j in range(0, 3 * count, 3)
                          if events[j] == native.EV_ROUTE)
            return replay(sweep, count)

        native.NativeSweep._replay = counted
        try:
            SyntheticTraffic(
                network, TrafficConfig(injection_rate=0.05, seed=11)
            ).run(700)
        finally:
            native.NativeSweep._replay = replay
        assert misses == []

    def test_route_cache_not_checkpointed(self):
        """The route table is pure derived state: it never appears in a
        checkpoint."""
        network = _traffic_run()
        state = network.state_dict()
        for key in [*state, *state["fabric"]]:
            assert "route_cache" not in key and "route_table" not in key
