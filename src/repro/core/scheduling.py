"""Coordinated packet scheduling (paper §3.3-B).

Two rules:

1. read requests and responses are on the critical path and keep the
   normal (high) priority;
2. *compressible but still uncompressed* packets are demoted, so they lose
   contention more often, accumulate idle time, and get compressed with
   higher probability — while genuinely critical traffic takes the
   bandwidth they give up.

Rule 2 is the "coordinated" half of DISCO: the scheduler manufactures the
very idle time the arbitrator then exploits.
"""

from __future__ import annotations

from repro.noc.flit import Packet, PacketType
from repro.noc.network import packet_state_priority

#: Normal priority for critical-path traffic.
PRIORITY_NORMAL = 1
#: Demoted priority for compressible-but-uncompressed packets.
PRIORITY_DEMOTED = 0


@packet_state_priority
def baseline_priority(packet: Packet) -> int:
    """Conventional scheduling: all packets equal (round-robin breaks ties)."""
    return PRIORITY_NORMAL


@packet_state_priority
def disco_priority(packet: Packet) -> int:
    """The §3.3-B policy (rule 2 applies to response packets only).

    Reads only the packet type and the compressed/compressible flags,
    which change solely inside DISCO engine completions."""
    if (
        packet.ptype is PacketType.RESPONSE
        and packet.compressible
        and not packet.is_compressed
    ):
        return PRIORITY_DEMOTED
    return PRIORITY_NORMAL
