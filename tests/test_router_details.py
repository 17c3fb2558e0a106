"""Router micro-behaviour tests: VC lifecycle, credits, arbitration."""

import pytest

from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.noc.router import VC_IDLE, VC_ROUTING
from repro.noc.topology import PORT_EAST, PORT_LOCAL, PORT_WEST


def test_input_vc_free_slots_clamp():
    network = Network(NocConfig(vc_depth=4))
    vc = network.routers[0].inputs[PORT_WEST][0]
    assert vc.free_slots() == 4
    vc.flits_present = 3
    vc.incoming = 2
    assert vc.free_slots() == 0  # never negative
    assert vc.occupancy() == 5


def test_accept_flit_head_collision_guard():
    network = Network(NocConfig())
    vc = network.routers[0].inputs[PORT_WEST][0]
    fs = network.fabric
    p1 = fs.allocate(Packet(PacketType.REQUEST, 0, 1))
    p2 = fs.allocate(Packet(PacketType.REQUEST, 0, 1))
    vc.accept_flit(p1, is_head=True)
    with pytest.raises(RuntimeError):
        vc.accept_flit(p2, is_head=True)


def test_vc_release_resets_state():
    network = Network(NocConfig())
    vc = network.routers[0].inputs[PORT_WEST][0]
    packet = Packet(PacketType.REQUEST, 0, 1)
    vc.accept_flit(network.fabric.allocate(packet), is_head=True)
    assert vc.packet is packet
    assert vc.state == VC_ROUTING
    vc.release()
    assert vc.state == VC_IDLE
    assert vc.packet is None
    assert vc.is_free()


def test_wormhole_vc_not_reallocated_midpacket():
    """A second packet cannot enter a VC while the first is in flight."""
    network = Network(NocConfig())
    delivered = []
    network.set_delivery_handler(lambda n, p: delivered.append(p.pid))
    # Two data packets from node 0 to node 1 on the same vnet: the second
    # must wait for the first's tail (single VC per vnet).
    a = Packet(PacketType.RESPONSE, 0, 1, line=b"\x00" * 64)
    b = Packet(PacketType.RESPONSE, 0, 1, line=b"\x00" * 64)
    network.send(a)
    network.send(b)
    network.run_until_quiescent()
    assert delivered == [a.pid, b.pid]  # strictly ordered
    # And the second one observed extra queueing.
    assert (b.ejected_cycle - b.injected_cycle) > (
        a.ejected_cycle - a.injected_cycle
    )


def test_downstream_occupancy_and_local_contention():
    network = Network(NocConfig())
    router = network.routers[5]
    neighbor = network.routers[6]  # east of 5
    neighbor.inputs[PORT_WEST][0].flits_present = 3
    neighbor.inputs[PORT_WEST][1].incoming = 2
    assert router.downstream_occupancy(PORT_EAST) == 5
    assert router.downstream_occupancy(PORT_LOCAL) == 0
    vc_a = router.inputs[PORT_WEST][1]
    vc_b = router.inputs[PORT_EAST][1]
    vc_a.packet = Packet(PacketType.RESPONSE, 0, 7, line=b"\x00" * 64)
    vc_a.out_port = PORT_EAST
    vc_a.flits_present = 4
    vc_b.packet = Packet(PacketType.RESPONSE, 0, 7, line=b"\x00" * 64)
    vc_b.out_port = PORT_EAST
    vc_b.flits_present = 2
    assert router.local_contention(PORT_EAST, exclude=vc_b) == 4
    assert router.local_contention(PORT_EAST, exclude=vc_a) == 2


def test_ejection_bandwidth_limits_flits_per_cycle():
    config = NocConfig(ejection_bandwidth=1)
    network = Network(config)
    delivered = []
    network.set_delivery_handler(lambda n, p: delivered.append(p))
    # Two packets from different directions converge on node 5.
    a = Packet(PacketType.RESPONSE, 4, 5, line=b"\x00" * 64)
    b = Packet(PacketType.RESPONSE, 6, 5, line=b"\x00" * 64)
    network.send(a)
    network.send(b)
    network.run_until_quiescent()
    assert len(delivered) == 2
    # 18 head+payload flits share a 1-flit/cycle ejection port, so both
    # packets run well past a solo transfer.
    solo_net = Network(config)
    solo_net.set_delivery_handler(lambda n, p: None)
    solo = Packet(PacketType.RESPONSE, 4, 5, line=b"\x00" * 64)
    solo_net.send(solo)
    solo_net.run_until_quiescent()
    solo_latency = solo.ejected_cycle - solo.injected_cycle
    for packet in delivered:
        latency = packet.ejected_cycle - packet.injected_cycle
        assert latency >= solo_latency + 5


def test_stats_flit_conservation_detail():
    network = Network(NocConfig())
    network.set_delivery_handler(lambda n, p: None)
    packet = Packet(PacketType.RESPONSE, 0, 15, line=b"\x00" * 64)
    network.send(packet)
    network.run_until_quiescent()
    stats = network.stats
    assert stats.flits_injected == 9
    assert stats.flits_ejected == 9
    # One link traversal per flit per hop (0 -> 15 crosses 6 links).
    assert packet.hops_traversed == 6
    assert stats.link_flits == 9 * 6
