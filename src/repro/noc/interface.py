"""Network interfaces: packetization, injection and ejection queues.

The NI is where the *scheme-dependent* compression steps of the paper's
comparison live (§4.1): CNC equips every NI with a (de)compressor that
compresses all injected and decompresses all ejected packets, charging the
algorithm's latency on both ends; DISCO's NI only pays a decompression
charge when a compressed packet reaches a destination that needs the raw
line and no router along the way found idle time to decompress it (the
mis-prediction residue of §3.2).  Those policies are injected by the
:mod:`repro.cmp.schemes` layer through :class:`repro.noc.network.Network`
hooks; the NI itself is scheme-agnostic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.noc.flit import Packet
from repro.noc.router import InputVC
from repro.noc.topology import PORT_LOCAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network


class NetworkInterface:
    """Injection/ejection endpoint of one node.

    Injection state lives in the fabric's NI arrays
    (:mod:`repro.noc.fabric_state`): per vnet, the open stream (target
    VC, packet handle, flits sent) and the injection queue's head (handle,
    ready cycle); the rest of each queue is a deque of ``(ready cycle,
    handle)`` here.  The native injection (:mod:`repro.noc.native`) runs
    this class's ``tick`` over the same arrays.
    """

    def __init__(self, node: int, network: "Network"):
        self.node = node
        self.network = network
        self.config = network.config
        self.fs = network.fabric
        #: This NI's first (node, vnet) queue index in the NI arrays.
        self._q = node * self.fs.vnets
        # One injection queue per vnet so responses never wait behind
        # requests at the source (protocol-deadlock avoidance): its head
        # in the fabric arrays, the rest here.
        self._queues: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(self.config.vnets)
        ]
        # Ejected packets waiting out an NI decompression charge (the
        # earliest ready cycle is mirrored in ``fs.ni_deliver``).
        self._pending_delivery: List[Tuple[int, Packet]] = []

    # -- injection -----------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection (applies the inject transform).

        Every injection *attempt* counts toward ``packets_injected`` — a
        packet an injected fault drops at the NI is still an attempt, and
        the drop itself lands in ``degraded.packets_dropped``, so
        ``injected == ejected + dropped + still-in-network`` holds whether
        or not faults fire (drain-time reasoning relies on it).  A queued
        packet gets its fabric handle here.  A packet whose vnet the
        network does not have is rejected before it counts.
        """
        fs = self.fs
        vnet = packet.ptype.vnet
        if vnet >= fs.vnets:
            raise ValueError(
                f"{packet.ptype.value} packets travel on vnet {vnet}, but "
                f"the network has {fs.vnets} vnet(s)"
            )
        now = self.network.cycle
        self.network.stats.packets_injected += 1
        tracer = self.network.tracer
        if tracer is not None:
            # Lifecycle hook: the sampling decision is made here, so every
            # injection attempt (first sends, retransmit clones, acks)
            # counts toward the 1/N rate.
            tracer.on_inject(now, packet, self.node)
        faults = self.network.faults
        if faults is not None and faults.drop_at_ni(now, self.node, packet):
            if tracer is not None:
                tracer.on_ni_drop(now, packet, self.node)
            return  # injected fault: the packet vanishes before queueing
        packet.injected_cycle = now
        ready = now + self.network.inject_transform(self.node, packet)
        handle = fs.allocate(packet)
        q = self._q + vnet
        if fs.ni_head[q] < 0:
            fs.ni_head[q] = handle
            fs.ni_ready[q] = ready
        else:
            self._queues[vnet].append((ready, handle))
        # Idle->busy transition: the NI may be asleep; wake it for the
        # cycle the packet becomes streamable.
        self.network.kernel.wake(self, ready)

    def has_work(self) -> bool:
        if self._pending_delivery:
            return True
        fs = self.fs
        for q in range(self._q, self._q + fs.vnets):
            if fs.ni_vid[q] >= 0 or fs.ni_head[q] >= 0:
                return True
        return False

    def tick(self, cycle: Optional[int] = None) -> None:
        self._deliver_pending()
        for vnet in range(self.config.vnets):
            self._advance_stream(vnet)

    def next_wake(self, cycle: int) -> Optional[int]:
        """Idleness contract: poll every cycle while a stream is open or a
        queue head is streamable (progress depends on VC/buffer state the
        NI cannot observe changing); otherwise sleep until the earliest
        ready deadline, or indefinitely (``inject`` /
        ``complete_ejection`` wake us)."""
        fs = self.fs
        queues = range(self._q, self._q + fs.vnets)
        for q in queues:
            if fs.ni_vid[q] >= 0:
                return cycle + 1
        best: Optional[int] = None
        for q in queues:
            if fs.ni_head[q] >= 0:
                ready = fs.ni_ready[q]
                if ready <= cycle:
                    return cycle + 1
                if best is None or ready < best:
                    best = ready
        for ready, _packet in self._pending_delivery:
            if ready <= cycle:
                return cycle + 1
            if best is None or ready < best:
                best = ready
        return best

    def refill(self, vnet: int) -> None:
        """Move the next queued packet of ``vnet`` into the queue head (the
        head was just popped into a stream)."""
        fs = self.fs
        q = self._q + vnet
        queue = self._queues[vnet]
        if queue:
            fs.ni_ready[q], fs.ni_head[q] = queue.popleft()
        else:
            fs.ni_head[q] = -1
            fs.ni_ready[q] = 0

    def cancel_packet(self, packet: Packet) -> bool:
        """Remove a packet from the injection queues / an open stream.

        Squash support for :mod:`repro.noc.reliability`: flits already
        streamed into the local VC are reclaimed by the VC squash; this
        only cancels state the NI itself still holds.  Returns True when
        anything was removed.
        """
        fs = self.fs
        handle = fs.handle_of(packet)
        if handle < 0:
            return False
        cancelled = False
        for vnet, queue in enumerate(self._queues):
            q = self._q + vnet
            kept = [(ready, h) for ready, h in queue if h != handle]
            if len(kept) != len(queue):
                self._queues[vnet] = deque(kept)
                cancelled = True
            if fs.ni_head[q] == handle:
                self.refill(vnet)
                cancelled = True
            if fs.ni_pkt[q] == handle:
                vid = fs.ni_vid[q]
                if fs.pkt_id[vid] < 0 and fs.reserved[vid]:
                    fs.reserved[vid] = 0  # head never entered the VC
                self._close_stream(q)
                cancelled = True
        return cancelled

    def describe_backlog(self) -> str:
        """One-line queue/stream summary for wedge snapshots."""
        fs = self.fs
        queues = range(self._q, self._q + fs.vnets)
        queued = sum(len(queue) for queue in self._queues) + sum(
            1 for q in queues if fs.ni_head[q] >= 0
        )
        streaming = sum(1 for q in queues if fs.ni_vid[q] >= 0)
        return (
            f"{queued} packets queued, {streaming} streams open, "
            f"{len(self._pending_delivery)} ejections pending"
        )

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        """Per-vnet injection queues, open streams, and pending ejections.

        Open streams path-encode their target VC; the packets themselves
        travel live through the system's single-pickle envelope.
        """
        fs = self.fs
        packets = fs.packets
        queues = []
        streaming = []
        for vnet, queue in enumerate(self._queues):
            q = self._q + vnet
            entries = []
            if fs.ni_head[q] >= 0:
                entries.append((fs.ni_ready[q], packets[fs.ni_head[q]]))
            entries.extend((ready, packets[h]) for ready, h in queue)
            queues.append(entries)
            vid = fs.ni_vid[q]
            streaming.append(
                None
                if vid < 0
                else (
                    packets[fs.ni_pkt[q]],
                    (fs.vc_port[vid], fs.vc_index[vid]),
                    fs.ni_sent[q],
                )
            )
        return {
            "version": 1,
            "queues": queues,
            "streaming": streaming,
            "pending_delivery": list(self._pending_delivery),
        }

    def load_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                "unsupported NetworkInterface state version "
                f"{state.get('version')!r}"
            )
        fs = self.fs
        handle = fs.handle
        router = self.network.routers[self.node]
        self._queues = []
        for vnet, saved in enumerate(state["queues"]):
            self._queues.append(
                deque((ready, handle(packet)) for ready, packet in saved)
            )
            self.refill(vnet)
        for vnet, stream in enumerate(state["streaming"]):
            q = self._q + vnet
            if stream is None:
                self._close_stream(q)
            else:
                packet, (port, vc_index), sent = stream
                fs.ni_vid[q] = router.inputs[port][vc_index].vid
                fs.ni_pkt[q] = handle(packet)
                fs.ni_sent[q] = sent
        self._pending_delivery = list(state["pending_delivery"])
        self._mirror_deliveries()

    def _close_stream(self, q: int) -> None:
        fs = self.fs
        fs.ni_vid[q] = -1
        fs.ni_pkt[q] = -1
        fs.ni_sent[q] = 0

    def _advance_stream(self, vnet: int) -> None:
        fs = self.fs
        q = self._q + vnet
        vid = fs.ni_vid[q]
        if vid < 0:
            vid = self._start_stream(vnet)
            if vid < 0:
                return
        # Hot path: read buffer fullness straight off the fabric array
        # (the local link has no in-flight credits to account for).
        if fs.depth - fs.flits_present[vid] <= 0:
            return  # no buffer space this cycle
        handle = fs.ni_pkt[q]
        packet = fs.packets[handle]
        sent = fs.ni_sent[q]
        vc = fs.views[vid]
        vc.accept_flit(handle, sent == 0)
        network = self.network
        # The local router may be asleep; it has a flit to move now.
        network.kernel.wake(vc.router)
        network.stats.flits_injected += 1
        network.stats.buffer_writes += 1
        if network.native_sweep is not None:
            network.native_sweep.python_injections += 1
        if sent == 0 and network.tracer is not None:
            # Lifecycle hook: head flit entered the source router's local
            # input VC (the packet's first hop).
            network.tracer.on_hop(
                network.cycle, packet, self.node, PORT_LOCAL, vc.vc_index
            )
        sent += 1
        if sent == packet.size_flits:
            self._close_stream(q)
        else:
            fs.ni_sent[q] = sent

    def _start_stream(self, vnet: int) -> int:
        """Open a stream for the queue head of ``vnet`` when it is ready
        and a local VC is free; returns the VC id (-1: none opened)."""
        fs = self.fs
        q = self._q + vnet
        handle = fs.ni_head[q]
        if handle < 0 or fs.ni_ready[q] > self.network.cycle:
            return -1
        vc = self._allocate_local_vc(vnet)
        if vc is None:
            return -1
        self.refill(vnet)
        vc.reserved = True
        # Reservation alone makes the router "busy": wake it so it is
        # polling when the head flit lands (accept may still be a cycle
        # away if the buffer is momentarily full).
        self.network.kernel.wake(vc.router)
        fs.ni_vid[q] = vc.vid
        fs.ni_pkt[q] = handle
        fs.ni_sent[q] = 0
        return vc.vid

    def _allocate_local_vc(self, vnet: int) -> Optional[InputVC]:
        router = self.network.routers[self.node]
        allowed = self.config.vnet_vcs(vnet)
        for vc in router.inputs[PORT_LOCAL]:
            if vc.vc_index not in allowed:
                continue
            if vc.is_free():
                return vc
        return None

    # -- ejection ------------------------------------------------------------
    def complete_ejection(self, packet: Packet) -> None:
        """Tail flit left the router: apply eject transform, then deliver."""
        now = self.network.cycle
        extra = self.network.eject_transform(self.node, packet)
        if extra > 0:
            self.network.stats.eject_decompress_stall_cycles += extra
            self._pending_delivery.append((now + extra, packet))
            self._mirror_deliveries()
            self.network.kernel.wake(self, now + extra)
        else:
            self._deliver(packet)

    def _deliver_pending(self) -> None:
        if not self._pending_delivery:
            return
        now = self.network.cycle
        remaining = []
        for ready, packet in self._pending_delivery:
            if ready <= now:
                self._deliver(packet)
            else:
                remaining.append((ready, packet))
        self._pending_delivery = remaining
        self._mirror_deliveries()

    def _mirror_deliveries(self) -> None:
        """``fs.ni_deliver``: the earliest pending delivery (-1: none)."""
        self.fs.ni_deliver[self.node] = min(
            (ready for ready, _packet in self._pending_delivery), default=-1
        )

    def _deliver(self, packet: Packet) -> None:
        now = self.network.cycle
        packet.ejected_cycle = now
        self.network.stats.record_ejection(
            packet.ptype.value, now - packet.injected_cycle
        )
        if self.network.tracer is not None:
            # Lifecycle hook: mirrors record_ejection exactly, so traced
            # eject events (and packet spans) match ``packets_ejected``.
            self.network.tracer.on_eject(now, packet, self.node)
        self.network.deliver(self.node, packet)
