"""The fabric network: routers + NIs, assembled on the simulation kernel.

The fabric shape comes from ``NocConfig.topology`` (mesh by default); the
network builds the topology object once, resolves the paired routing
algorithm from the registry, and hands both to its routers.

The network no longer hand-walks its routers each cycle — it registers
components on a :class:`repro.sim.SimKernel` in five ordered phases:

- ``net.frame`` — start-of-cycle housekeeping (ejection-token refill);
- ``net.arrivals`` — link arrivals land in their target VCs;
- ``net.routers`` — the 3-stage router pipelines;
- ``net.nis`` — injection streaming and pending ejection deliveries;
- ``net.delivery`` — same-tile (local) deliveries.

The kernel owns the global clock; a :class:`CmpSystem` passes its own
kernel in so cores, banks and the memory controller tick on the same clock
in phases appended after these.  ``Network.tick()`` remains as a
convenience that steps the whole kernel by one cycle.

Three pluggable hooks are configured by the CMP scheme layer:

- ``inject_transform(node, packet) -> extra cycles`` — NI-side work at
  injection (CNC's NI compressor);
- ``eject_transform(node, packet) -> extra cycles`` — NI-side work at
  ejection (CNC's NI decompressor; DISCO's residual decompression);
- ``packet_priority(packet) -> int`` — the §3.3-B scheduling policy.

A ``router_factory`` lets the DISCO scheme replace the baseline router with
:class:`repro.core.disco_router.DiscoRouter` without the network knowing.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.noc import native
from repro.noc.config import NocConfig
from repro.noc.fabric_state import FabricState
from repro.noc.flit import Packet
from repro.noc.interface import NetworkInterface
from repro.noc.router import InputVC, Router
from repro.noc.reliability import InvariantMonitor, ReliabilityLayer
from repro.noc.stats import NetworkStats
from repro.sim import CallbackComponent, SimKernel
from repro.sim.stats import DegradedStats, RecoveredStats, TelemetryStats
from repro.telemetry.sampler import TimeSeriesSampler
from repro.telemetry.tracer import PacketTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.controller import FaultController

RouterFactory = Callable[[int, NocConfig, "Network"], Router]
DeliveryHandler = Callable[[int, Packet], None]


def _default_inject(node: int, packet: Packet) -> int:
    return 0


def _default_eject(node: int, packet: Packet) -> int:
    return 0


def packet_state_priority(
    policy: Callable[[Packet], int]
) -> Callable[[Packet], int]:
    """Mark a ``packet_priority`` policy that is a pure function of packet
    fields which only a DISCO engine completion changes.

    The fabric then mirrors each bound packet's priority into an array
    (``FabricState.pkt_prio``) at head accept and after every engine
    completion, which is what the native router sweep
    (:mod:`repro.noc.native`) arbitrates on; any unmarked policy keeps
    the routers on the Python path.
    """
    policy.packet_state_priority = True
    return policy


@packet_state_priority
def _default_priority(packet: Packet) -> int:
    return 1


def _copy_fields(obj) -> dict:
    """Shallow field copy of a stats object, dict-valued fields included,
    so an in-process snapshot never aliases the live accumulators."""
    return {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in obj.__dict__.items()
    }


#: Arrival-ring entry flags: an entry is ``target vid << 2 | flags``
#: (``_sweep.c`` writes the same encoding).
RING_HEAD = 1
RING_TAIL = 2


class ArrivalQueue:
    """Link flits in flight toward their target VCs (a kernel component).

    One array-backed ring, written by both router sweeps.  Link latency
    is one config constant ``L``, so a flit sent at cycle ``c`` lands at
    ``c + L`` and ``L + 1`` slots suffice: slot ``due % (L + 1)`` holds
    the flits due at ``due[slot]``, in send order, as ``target vid << 2 |
    RING_HEAD | RING_TAIL`` entries of ``ring``, with the handle of each
    flit's packet in the parallel ``pkt``; ``count[slot]`` of its
    ``capacity`` entries (the fabric's output-port count: a router sends
    at most one flit per output port per cycle) are in use.

    Idleness contract: ``next_wake`` is the earliest due cycle of a
    non-empty slot, and the queue is woken for that cycle exactly when
    the slot's first flit is scheduled (by ``schedule`` or by the native
    sweep).  Landing wakes every target router once, in the same cycle
    (``net.routers`` sweeps after ``net.arrivals``).  While the native
    sweep may run, a slot lands in C (:meth:`NativeSweep.land`), which
    binds a head by writing its handle to the target VC's ``pkt_id``;
    otherwise :meth:`_land` calls ``InputVC.accept_flit`` flit by flit,
    so tracers and fault hooks see every flit.
    """

    __slots__ = ("network", "slots", "capacity", "ring", "pkt", "count", "due")

    def __init__(self, network: "Network"):
        self.network = network
        self.slots = network.config.link_latency + 1
        self.capacity = len(network.fabric.sa_rr)
        # Fixed-size arrays: the native sweep binds to their addresses.
        self.ring = array("q", bytes(8 * self.slots * self.capacity))
        self.pkt = array("q", bytes(8 * self.slots * self.capacity))
        self.count = array("q", bytes(8 * self.slots))
        self.due = array("q", [-1]) * self.slots

    def schedule(
        self,
        due: int,
        target_vc: InputVC,
        handle: int,
        is_head: bool,
        is_tail: bool,
    ) -> None:
        flags = (RING_HEAD if is_head else 0) | (RING_TAIL if is_tail else 0)
        if self._put(due, target_vc.vid, handle, flags):
            self.network.kernel.wake(self, due)

    def _put(self, due: int, vid: int, handle: int, flags: int) -> bool:
        """Append one flit; True when it is the first of its slot."""
        slot = due % self.slots
        n = self.count[slot]
        if n and self.due[slot] != due:
            raise RuntimeError(self.conflict_message(slot, due))
        if n >= self.capacity:
            raise RuntimeError(self.overflow_message(slot, due))
        entry = slot * self.capacity + n
        self.ring[entry] = vid << 2 | flags
        self.pkt[entry] = handle
        self.count[slot] = n + 1
        if n:
            return False
        self.due[slot] = due
        return True

    def overflow_message(self, slot: int, due: int) -> str:
        return (
            f"arrival ring slot {slot} is full: a flit due at cycle {due} "
            f"exceeds its capacity of {self.capacity} flits"
        )

    def conflict_message(self, slot: int, due: int) -> str:
        return (
            f"arrival ring slot {slot} holds flits due at cycle "
            f"{self.due[slot]}; a flit due at cycle {due} cannot join them "
            f"(link latency {self.slots - 1})"
        )

    def _clear(self) -> None:
        for slot in range(self.slots):
            self.count[slot] = 0
            self.due[slot] = -1

    def _flits(self) -> Iterator[Tuple[int, int, int, int]]:
        """Every flit in flight as ``(due, target vid, handle, flags)``,
        in landing order."""
        count = self.count
        for slot in sorted(
            (s for s in range(self.slots) if count[s]),
            key=self.due.__getitem__,
        ):
            due = self.due[slot]
            base = slot * self.capacity
            for k in range(base, base + count[slot]):
                entry = self.ring[k]
                yield due, entry >> 2, self.pkt[k], entry & 3

    def has_work(self) -> bool:
        return any(self.count)

    def pending(self) -> int:
        """Total flits still in flight on links."""
        return sum(self.count)

    def in_flight_counts(self) -> Dict[InputVC, int]:
        """In-flight flit count per target VC (the invariant monitor
        checks these against each VC's ``incoming`` credit view)."""
        views = self.network.fabric.views
        counts: Dict[InputVC, int] = {}
        for _due, vid, _handle, _flags in self._flits():
            vc = views[vid]
            counts[vc] = counts.get(vc, 0) + 1
        return counts

    def _refill(self, flits: List[Tuple[int, int, int, int]]) -> None:
        self._clear()
        for due, vid, handle, flags in flits:
            self._put(due, vid, handle, flags)

    def purge_packet(self, packet: Packet) -> int:
        """Remove every in-flight flit of ``packet`` (squash support).

        Decrements the target VCs' ``incoming`` credits so flow control
        stays conserved; returns the flit count removed.
        """
        handle = self.network.fabric.handle_of(packet)
        kept = []
        incoming = self.network.fabric.incoming
        removed = 0
        for flit in list(self._flits()):
            vid = flit[1]
            if flit[2] == handle:
                if incoming[vid] > 0:
                    incoming[vid] -= 1
                removed += 1
            else:
                kept.append(flit)
        self._refill(kept)
        return removed

    def next_wake(self, cycle: int) -> Optional[int]:
        earliest = None
        for slot in range(self.slots):
            if self.count[slot]:
                due = self.due[slot]
                if earliest is None or due < earliest:
                    earliest = due
        return earliest

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        """In-flight link flits per due cycle, target VCs path-encoded,
        each with its packet (the version-1 layout of the dict-backed
        queue this ring replaced; ``due_heap`` lists the due cycles)."""
        fs = self.network.fabric
        views = fs.views
        due: Dict[int, list] = {}
        for cycle, vid, handle, flags in self._flits():
            vc = views[vid]
            due.setdefault(cycle, []).append(
                (
                    (vc.router.node, vc.port, vc.vc_index),
                    fs.packets[handle],
                    bool(flags & RING_HEAD),
                    bool(flags & RING_TAIL),
                )
            )
        return {"version": 1, "due": due, "due_heap": sorted(due)}

    def load_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported ArrivalQueue state version {state.get('version')!r}"
            )
        routers = self.network.routers
        handle = self.network.fabric.handle
        self._refill([
            (
                cycle,
                routers[node].inputs[port][vc_index].vid,
                handle(packet),
                (RING_HEAD if is_head else 0) | (RING_TAIL if is_tail else 0),
            )
            for cycle, batch in sorted(state["due"].items())
            for (node, port, vc_index), packet, is_head, is_tail in batch
        ])

    def tick(self, cycle: int) -> None:
        slot = cycle % self.slots
        count = self.count[slot]
        if not count or self.due[slot] != cycle:
            return
        sweep = self.network.native_sweep
        if sweep is None:
            self._land(cycle, slot, count)
        elif sweep.reason(cycle) is None:
            sweep.land(slot, count)
        else:
            self._land(cycle, slot, count)
            sweep.python_landings += count

    def _land(self, cycle: int, slot: int, count: int) -> None:
        """Land ``slot`` flit by flit through ``InputVC.accept_flit``."""
        network = self.network
        fs = network.fabric
        views = fs.views
        packets = fs.packets
        hops = fs.pkt_hops
        base = slot * self.capacity
        entries = self.ring[base:base + count]
        handles = self.pkt[base:base + count]
        self.count[slot] = 0
        self.due[slot] = -1
        stats = network.stats
        faults = network.faults
        tracer = network.tracer
        wake = network.kernel.wake
        for entry, handle in zip(entries, handles):
            target_vc = views[entry >> 2]
            is_head = bool(entry & RING_HEAD)
            packet = packets[handle]
            target_vc.accept_flit(handle, is_head)
            wake(target_vc.router)
            stats.buffer_writes += 1
            if is_head:
                hops[handle] += 1
                packet.hops_traversed = hops[handle]
                if tracer is not None:
                    # Lifecycle hook: head flit landed in a router VC.
                    tracer.on_hop(
                        cycle,
                        packet,
                        target_vc.router.node,
                        target_vc.port,
                        target_vc.vc_index,
                    )
            if faults is not None:
                # Link-traversal fault hook: payload corruption strikes a
                # flit as it lands in the downstream buffer.
                faults.on_link_flit(cycle, target_vc, packet, is_head)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrivalQueue({self.pending()} flits in flight)"


class LocalDeliveryQueue:
    """Same-tile deliveries waiting out their NI transform latency.

    Idleness contract: sleeps until the earliest ``ready`` cycle
    (``next_wake``); ``schedule`` wakes it for the new deadline.
    """

    __slots__ = ("network", "_pending")

    def __init__(self, network: "Network"):
        self.network = network
        self._pending: List[Tuple[int, Packet]] = []

    def schedule(self, ready: int, packet: Packet) -> None:
        self._pending.append((ready, packet))
        self.network.kernel.wake(self, ready)

    def has_work(self) -> bool:
        return bool(self._pending)

    def pending(self) -> int:
        return len(self._pending)

    def next_wake(self, cycle: int) -> Optional[int]:
        if not self._pending:
            return None
        return min(ready for ready, _packet in self._pending)

    def tick(self, cycle: int) -> None:
        remaining = []
        network = self.network
        for ready, packet in self._pending:
            if ready <= cycle:
                packet.ejected_cycle = cycle
                network.stats.record_ejection(
                    packet.ptype.value, cycle - packet.injected_cycle
                )
                if network.tracer is not None:
                    network.tracer.on_eject(cycle, packet, packet.dst)
                network.deliver(packet.dst, packet)
            else:
                remaining.append((ready, packet))
        self._pending = remaining

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        return {"version": 1, "pending": list(self._pending)}

    def load_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                "unsupported LocalDeliveryQueue state version "
                f"{state.get('version')!r}"
            )
        self._pending = list(state["pending"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalDeliveryQueue({len(self._pending)} pending)"


class Network:
    """A cycle-level NoC instance over a pluggable topology."""

    def __init__(
        self,
        config: NocConfig,
        router_factory: Optional[RouterFactory] = None,
        kernel: Optional[SimKernel] = None,
        native_sweep: bool = True,
    ):
        """``native_sweep=False`` keeps the routers on the Python sweep
        even when the native one is available (:mod:`repro.noc.native`);
        results are identical either way."""
        self.config = config
        self.topology = config.make_topology()
        self.mesh = self.topology  # legacy alias (pre-fabric callers)
        self.routing = config.make_routing()
        self._route_fn = self.routing.fn
        # Route memo: decisions are pure functions of (topology, node,
        # dst), filled on first use, one packed ``out_port << 2 |
        # (vc_class + 1)`` per (node, dst), -1 until then.  The native
        # sweep reads it for RC.  Pure derived state: never checkpointed.
        self._n_nodes = self.topology.n_nodes
        self.route_table = array("q", [-1]) * (self._n_nodes * self._n_nodes)
        self.stats = NetworkStats()
        self.kernel = kernel if kernel is not None else SimKernel()
        #: The struct-of-arrays dataplane state layer (must exist before
        #: the routers: their InputVC views bind to its arrays).
        self.fabric = FabricState(self.topology, config)
        factory = router_factory or Router
        self.routers: List[Router] = [
            factory(node, config, self) for node in range(self.topology.n_nodes)
        ]
        self.nis: List[NetworkInterface] = [
            NetworkInterface(node, self) for node in range(self.topology.n_nodes)
        ]
        self.arrival_queue = ArrivalQueue(self)
        self.local_deliveries = LocalDeliveryQueue(self)
        # Ejection tokens live in the fabric layer (started full there);
        # the alias keeps every existing call site working.  The frame
        # step only refills nodes that actually spent tokens
        # (``_eject_spent``) instead of rewriting the array every cycle.
        self._eject_tokens = self.fabric.eject_tokens
        self._eject_spent: List[int] = []
        self._delivery_handler: Optional[DeliveryHandler] = None
        #: Fault-injection controller (:mod:`repro.faults`); ``None`` keeps
        #: every hook a cheap attribute test with zero behavioural impact.
        self.faults: Optional["FaultController"] = None
        #: Graceful-degradation counters — always registered as the
        #: ``degraded`` stat group so snapshots are layout-stable whether
        #: or not a fault plan is attached.
        self.degraded = DegradedStats()
        #: Recovered-fault counters (:mod:`repro.noc.reliability`).  The
        #: object always exists (cheap hook sites), but the ``recovered``
        #: stat group is only registered when the reliability layer or the
        #: invariant monitor is enabled — the golden default-mesh snapshot
        #: layout is unchanged otherwise.
        self.recovered = RecoveredStats()
        #: NI retransmission protocol (``config.retransmission``).
        self.reliability: Optional[ReliabilityLayer] = None
        #: Runtime invariant monitor (``config.invariant_interval > 0``).
        self.monitor: Optional[InvariantMonitor] = None
        #: Observability counters (:mod:`repro.telemetry`).  The object
        #: always exists, but the ``telemetry`` stat group is only
        #: registered when a telemetry knob is on — snapshot layout (and
        #: the golden digests) are unchanged otherwise.
        self.telemetry = TelemetryStats()
        #: Per-packet lifecycle tracer (``config.trace_packets``); ``None``
        #: keeps every hook a cheap attribute test, mirroring ``faults``.
        self.tracer: Optional[PacketTracer] = None
        #: Time-series stats sampler (``config.stats_interval > 0``).
        self.sampler: Optional[TimeSeriesSampler] = None
        # Scheme hooks (see module docstring).
        self.inject_transform: Callable[[int, Packet], int] = _default_inject
        self.eject_transform: Callable[[int, Packet], int] = _default_eject
        self.packet_priority = _default_priority
        self._register_components(native_sweep)

    def _register_components(self, native_sweep: bool) -> None:
        kernel = self.kernel
        kernel.register(
            CallbackComponent(self._frame_start, label="net.frame"),
            phase="net.frame",
        )
        kernel.register(self.arrival_queue, phase="net.arrivals")
        for router in self.routers:
            kernel.register(router, phase="net.routers")
        for ni in self.nis:
            kernel.register(ni, phase="net.nis")
        #: The native dataplane drives the router and NI phases when it
        #: can run (:mod:`repro.noc.native`); the routers and NIs stay
        #: registered so wake()/active-set bookkeeping is unchanged.
        self.native_sweep = native.install(self, native_sweep)
        kernel.register(self.local_deliveries, phase="net.delivery")
        config = self.config
        if config.retransmission:
            self.reliability = ReliabilityLayer(self)
            kernel.register(self.reliability, phase="net.reliability")
        if config.invariant_interval > 0:
            self.monitor = InvariantMonitor(
                self,
                interval=config.invariant_interval,
                patience=config.invariant_patience,
                recover=config.invariant_recovery,
            )
            kernel.register(self.monitor, phase="net.monitor")
        kernel.stats.register("network", self._network_counters)
        kernel.stats.register("degraded", self.degraded.counters)
        if self.reliability is not None or self.monitor is not None:
            kernel.stats.register("recovered", self.recovered.counters)
        if config.telemetry_enabled:
            kernel.stats.register("telemetry", self.telemetry.counters)
            # Idle-efficiency counters (cycles_total / component_wakes /
            # wakes_skipped).  Gated with telemetry so the default snapshot
            # layout — and the golden digests — are unchanged.
            kernel.stats.register("kernel", kernel.kernel_counters)
        if config.trace_packets:
            self.tracer = PacketTracer(
                sample_interval=config.trace_sample_interval,
                event_cap=config.trace_event_cap,
                stats=self.telemetry,
            )
            kernel.annotations["telemetry.tracer"] = (
                f"1/{config.trace_sample_interval} packets, "
                f"cap {config.trace_event_cap} events"
            )
        if config.stats_interval > 0:
            self.sampler = TimeSeriesSampler(
                kernel,
                interval=config.stats_interval,
                capacity=config.stats_window_cap,
                stats=self.telemetry,
            )
            self.sampler.add_gauge("fabric_occupancy", self._fabric_occupancy)
            kernel.register(self.sampler, phase="telemetry.sample")
            kernel.annotations["telemetry.sampler"] = (
                f"every {config.stats_interval} cycles, "
                f"ring of {config.stats_window_cap} windows"
            )

    def _frame_start(self, cycle: int) -> None:
        self.stats.cycles = cycle
        if self.native_sweep is not None:
            # Take the cycle's path verdict before any phase acts on it: a
            # kernel tracer ticks the routers without asking the driver.
            self.native_sweep.reason(cycle)
        spent = self._eject_spent
        if spent:
            bandwidth = self.config.ejection_bandwidth
            tokens = self._eject_tokens
            for node in spent:
                tokens[node] = bandwidth
            self._eject_spent = []
        if self.faults is not None:
            # Per-cycle fault hook: scheduled faults fire, random
            # credit/wedge faults are sampled, stolen credits resync.
            self.faults.on_cycle(cycle, self)

    def _fabric_occupancy(self) -> float:
        """Buffered + in-flight flits across every router VC (the default
        occupancy gauge of the telemetry sampler)."""
        return float(self.fabric.total_occupancy())

    def _network_counters(self) -> Dict[str, int]:
        """The NoC's contribution to the kernel's stats registry (legacy
        flat counter names, consumed by the energy model)."""
        stats = self.stats
        return {
            "cycles": self.kernel.cycle,
            "link_flits": stats.link_flits,
            "buffer_writes": stats.buffer_writes,
            "buffer_reads": stats.buffer_reads,
            "crossbar_flits": stats.crossbar_flits,
            "sa_grants": stats.sa_grants,
            "va_grants": stats.va_grants,
            "router_compressions": stats.compressions,
            "router_decompressions": stats.decompressions,
            "ni_compressions": stats.ni_compressions,
            "ni_decompressions": stats.ni_decompressions,
            "flits_injected": stats.flits_injected,
            "flits_ejected": stats.flits_ejected,
            "packets_injected": stats.packets_injected,
        }

    @property
    def packet_priority(self) -> Callable[[Packet], int]:
        """The §3.3-B scheduling policy; setting it re-mirrors the
        priority of every bound packet (``FabricState.pkt_prio``)."""
        return self.fabric.priority

    @packet_priority.setter
    def packet_priority(self, policy: Callable[[Packet], int]) -> None:
        self.fabric.priority = policy
        self.fabric.refresh_mirrors()

    # -- clock ----------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.kernel.cycle

    @cycle.setter
    def cycle(self, value: int) -> None:
        # The CMP fast-forward jumps the shared clock over provably idle
        # cycles; everything reading the clock goes through the kernel.
        self.kernel.cycle = value

    # -- wiring ---------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        """Register the endpoint callback for fully-delivered packets."""
        self._delivery_handler = handler

    def attach_faults(self, controller: "FaultController") -> None:
        """Wire a fault-injection controller into the explicit hook points
        (injection, link arrivals, ejection, per-cycle sampling).  A
        zero-fault plan is guaranteed inert: the hooks only observe."""
        if self.faults is not None:
            raise RuntimeError("a fault controller is already attached")
        controller.bind(self)
        self.faults = controller

    # -- packet movement -------------------------------------------------------
    def route(self, node: int, dst: int):
        """Route decision ``(out_port, vc_class)`` at ``node`` toward ``dst``
        under the configured algorithm.

        Routing algorithms are deterministic pure functions of
        ``(topology, node, dst)`` (the :mod:`repro.noc.routing` contract),
        so each pair is computed once, into ``route_table``.
        """
        key = node * self._n_nodes + dst
        packed = self.route_table[key]
        if packed < 0:
            out_port, vc_class = self._route_fn(self.topology, node, dst)
            self.route_table[key] = out_port << 2 | (
                0 if vc_class is None else vc_class + 1
            )
            return out_port, vc_class
        vc_class = (packed & 3) - 1
        return packed >> 2, None if vc_class < 0 else vc_class

    def send(self, packet: Packet) -> None:
        """Inject a packet at its source node's NI."""
        if not 0 <= packet.src < self.topology.n_nodes:
            raise ValueError(f"bad source node {packet.src}")
        if not 0 <= packet.dst < self.topology.n_nodes:
            raise ValueError(f"bad destination node {packet.dst}")
        if self.reliability is not None:
            # Stamp seq + CRC and record the replay copy first, so the
            # integrity fingerprint below sees the protocol-complete packet.
            self.reliability.on_send(self.cycle, packet)
        if self.faults is not None:
            # Integrity hook: fingerprint the payload before the packet can
            # be touched by the network (or by an injected fault).
            self.faults.on_send(self.cycle, packet)
        if packet.src == packet.dst:
            # Local traffic never enters the mesh.  Both NI transforms still
            # apply (e.g. CNC compresses at injection and decompresses at
            # ejection even for same-tile transfers).
            packet.injected_cycle = self.cycle
            self.stats.packets_injected += 1
            if self.tracer is not None:
                self.tracer.on_inject(self.cycle, packet, packet.src)
            delay = 1 + self.inject_transform(packet.src, packet)
            delay += self.eject_transform(packet.dst, packet)
            self.local_deliveries.schedule(self.cycle + delay, packet)
            return
        self.nis[packet.src].inject(packet)

    def schedule_arrival(
        self,
        delay: int,
        target_vc: InputVC,
        packet: Packet,
        is_head: bool,
        is_tail: bool,
    ) -> None:
        self.arrival_queue.schedule(
            self.cycle + delay, target_vc, self.fabric.handle(packet),
            is_head, is_tail,
        )

    def can_eject(self, node: int) -> bool:
        return self._eject_tokens[node] > 0

    def eject_flit(self, node: int, handle: int, is_tail: bool) -> None:
        """One flit of the packet behind ``handle`` leaves at ``node``; its
        tail retires the handle and completes the ejection."""
        self._eject_tokens[node] -= 1
        self._eject_spent.append(node)
        self.stats.flits_ejected += 1
        if is_tail:
            self.nis[node].complete_ejection(self.fabric.retire(handle))

    def deliver(self, node: int, packet: Packet) -> None:
        if self.reliability is not None and not self.reliability.on_deliver(
            self.cycle, node, packet
        ):
            # The reliability endpoint consumed it: an ack/NACK, a
            # suppressed duplicate, or a CRC-rejected delivery awaiting a
            # bit-exact retransmission.  Neither the integrity check nor
            # the endpoint handler ever sees a bad or repeated payload.
            return
        if self.faults is not None:
            # Integrity hook: verify the payload survived compress →
            # traverse → decompress byte-identically before the endpoint
            # consumes it.
            self.faults.on_deliver(self.cycle, node, packet)
        if self._delivery_handler is not None:
            self._delivery_handler(node, packet)

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        """Full fabric state for the snapshot protocol.

        Optional layers (reliability, monitor, faults, tracer, sampler) are
        captured only when attached; a restore under a different
        configuration raises instead of silently dropping state.  Shared
        stats objects (``stats``/``degraded``/``recovered``/``telemetry``)
        are saved as field dicts and copied back into the existing
        instances, which registered providers hold by reference.

        Version 2 (the FabricState refactor): the fabric's numeric plane
        travels as the ``fabric`` entry and is restored *last*, making it
        authoritative over anything the per-router VC snapshots wrote;
        eject tokens live inside it.  The route table is pure derived
        state (decisions are deterministic functions of the static
        topology) and is deliberately absent, and so are the packet
        handles: every live packet's hop count is written back first.
        """
        self.fabric.sync_hops()
        return {
            "version": 2,
            "fabric": self.fabric.state_dict(),
            "routers": [router.state_dict() for router in self.routers],
            "nis": [ni.state_dict() for ni in self.nis],
            "arrivals": self.arrival_queue.state_dict(),
            "local_deliveries": self.local_deliveries.state_dict(),
            "eject_spent": list(self._eject_spent),
            "stats": _copy_fields(self.stats),
            "degraded": _copy_fields(self.degraded),
            "recovered": _copy_fields(self.recovered),
            "telemetry": _copy_fields(self.telemetry),
            "reliability": (
                None if self.reliability is None else self.reliability.state_dict()
            ),
            "monitor": None if self.monitor is None else self.monitor.state_dict(),
            "faults": None if self.faults is None else self.faults.state_dict(),
            "tracer": None if self.tracer is None else self.tracer.state_dict(),
            "sampler": None if self.sampler is None else self.sampler.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        if state.get("version") != 2:
            raise ValueError(
                f"unsupported Network state version {state.get('version')!r}"
            )
        for layer in ("reliability", "monitor", "faults", "tracer", "sampler"):
            saved = state[layer] is not None
            attached = getattr(self, layer) is not None
            if saved != attached:
                raise ValueError(
                    f"checkpoint {'has' if saved else 'lacks'} {layer} state "
                    "but the restored network "
                    f"{'lacks' if saved else 'has'} that layer attached"
                )
        # Handles are derived state: the VCs, NIs and the arrival ring
        # allocate them again, by packet identity, as they load.
        self.fabric.reset_handles()
        for router, saved in zip(self.routers, state["routers"]):
            router.load_state(saved)
        for ni, saved in zip(self.nis, state["nis"]):
            ni.load_state(saved)
        self.arrival_queue.load_state(state["arrivals"])
        self.local_deliveries.load_state(state["local_deliveries"])
        # The fabric loads after the routers so its numeric plane is
        # authoritative (the VC views re-derived the same values; this
        # guarantees it bit-for-bit).  ``_eject_tokens`` aliases the
        # fabric's array, so the tokens restore through it.
        self.fabric.load_state(state["fabric"])
        self._eject_spent = list(state["eject_spent"])
        self.stats.__dict__.update(state["stats"])
        self.degraded.__dict__.update(state["degraded"])
        self.recovered.__dict__.update(state["recovered"])
        self.telemetry.__dict__.update(state["telemetry"])
        if self.reliability is not None:
            self.reliability.load_state(state["reliability"])
        if self.monitor is not None:
            self.monitor.load_state(state["monitor"])
        if self.faults is not None:
            self.faults.load_state(state["faults"])
        if self.tracer is not None:
            self.tracer.load_state(state["tracer"])
        if self.sampler is not None:
            self.sampler.load_state(state["sampler"])

    # -- the cycle loop ----------------------------------------------------------
    def tick(self) -> None:
        """Advance the simulation by one cycle (steps the whole kernel)."""
        self.kernel.step()

    def quiescent(self) -> bool:
        """True when nothing is buffered, queued or in flight."""
        if self.arrival_queue.has_work() or self.local_deliveries.has_work():
            return False
        if any(router.has_work() for router in self.routers):
            return False
        if self.reliability is not None and self.reliability.has_work():
            # Unacked replay entries still have deadlines pending: the
            # drain must keep ticking so a dropped packet retransmits
            # instead of stranding the run in a false quiescent state.
            return False
        return not any(ni.has_work() for ni in self.nis)

    def run_until_quiescent(self, max_cycles: int = 1_000_000) -> int:
        """Tick until idle; returns the cycle count.  For tests/examples."""
        start = self.cycle
        while not self.quiescent():
            self.tick()
            if self.cycle - start > max_cycles:
                raise RuntimeError(
                    "network failed to drain (deadlock?)\n"
                    + self.wedge_snapshot()
                )
        return self.cycle - start

    # -- wedge diagnostics ------------------------------------------------------
    def wedge_snapshot(self) -> str:
        """Where every buffered flit / queued packet is stuck right now.

        Attached to drain/watchdog failures so a deadlock can be triaged
        from the exception alone: per-router VC occupancy with the packets
        held, link flits still in flight, NI injection backlogs, and
        pending local deliveries.
        """
        lines = [f"--- wedge snapshot @ cycle {self.cycle} ---"]
        in_flight = self.arrival_queue.pending()
        lines.append(
            f"link flits in flight: {in_flight}; "
            f"local deliveries pending: {self.local_deliveries.pending()}"
        )
        for router in self.routers:
            busy = [
                vc
                for vc in router.all_vcs
                if vc.packet is not None or vc.flits_present or vc.incoming
            ]
            if not busy:
                continue
            buffered = sum(vc.flits_present for vc in busy)
            incoming = sum(vc.incoming for vc in busy)
            held = ", ".join(
                f"{self.topology.port_name(vc.port)}/vc{vc.vc_index}:"
                f"{vc.packet.ptype.name}"
                f"({vc.packet.src}->{vc.packet.dst},"
                f" {vc.flits_sent}/{vc.packet.size_flits} sent,"
                f" state={vc.state}"
                + (
                    f", wedged_until={vc.wedged_until}"
                    if vc.wedged_until > self.cycle
                    else ""
                )
                + (
                    f", credit_debt={vc.credit_debt}"
                    if vc.credit_debt
                    else ""
                )
                + ")"
                for vc in busy
                if vc.packet is not None
            )
            lines.append(
                f"router {router.node}: {buffered} flits buffered, "
                f"{incoming} incoming; {held or 'no packet bound'}"
            )
        for ni in self.nis:
            if ni.has_work():
                lines.append(f"NI {ni.node}: {ni.describe_backlog()}")
        if len(lines) == 2:
            lines.append("(no component holds state - clean quiescence)")
        return "\n".join(lines)
