"""Fabric-state and route-cache tests.

The :class:`FabricState` arrays are the dataplane both router sweeps
(native and Python) read and write; they must round-trip through a
checkpoint bit for bit.  The route cache is derived state that must
stay bounded and never reach a checkpoint.
"""

from repro.noc import Network, NocConfig
from repro.noc.traffic import SyntheticTraffic, TrafficConfig


def make_network(**kwargs):
    return Network(NocConfig(**kwargs))


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
    def test_small_fabrics_precompute_all_pairs(self):
        network = Network(NocConfig())  # 4x4: 240 pairs <= 4096
        n = network.topology.n_nodes
        assert len(network._route_cache) == n * (n - 1)
        assert network._route_cache_cap == 0
        before = dict(network._route_cache)
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    network.route(src, dst)
        assert network._route_cache == before  # route() never grows it
        assert network._route_cache_evictions == 0

    def test_large_fabrics_cap_and_evict(self, monkeypatch):
        monkeypatch.setattr(Network, "ROUTE_PRECOMPUTE_MAX_PAIRS", 0)
        monkeypatch.setattr(Network, "ROUTE_CACHE_CAP", 8)
        network = Network(NocConfig())
        assert network._route_cache == {}
        assert network._route_cache_cap == 8
        n = network.topology.n_nodes
        decisions = {}
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    decisions[(src, dst)] = network.route(src, dst)
        assert len(network._route_cache) <= 8
        assert network._route_cache_evictions > 0
        # Evicted entries recompute to the same deterministic decision.
        for (src, dst), decision in list(decisions.items())[:32]:
            assert network.route(src, dst) == decision

    def test_route_cache_not_checkpointed(self):
        """The cache is pure derived state: it never appears in a
        checkpoint, and a capped cache's eviction counter resets on a
        fresh build without affecting restored behaviour."""
        network = _traffic_run()
        state = network.state_dict()
        for key in state:
            assert "route_cache" not in key
        for key in state["fabric"]:
            assert "route_cache" not in key
