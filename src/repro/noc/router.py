"""The 3-stage virtual-channel router (paper §3.1, Fig. 2).

Pipeline: buffer-write + route computation (RC) -> VC allocation (VA) +
switch allocation (SA) -> switch traversal (ST) + link traversal.  The
stages are emulated by processing SA first, then VA, then RC within each
cycle, so a packet advances exactly one stage per cycle.

Flow control is credit-based: a sender inspects the downstream VC's free
slots (``depth - buffered - in flight``).  Wormhole allocates a downstream
VC to a packet from head to tail; virtual cut-through and store-and-forward
additionally require the whole packet to fit (and, for SAF, to have fully
arrived) before it advances — the property §3.3-A relies on for whole-packet
compression.

State layout: every mutable numeric field of a VC lives in the fabric's
struct-of-arrays layer (:class:`repro.noc.fabric_state.FabricState`),
indexed by the VC's flat ``vid``.  :class:`InputVC` is a typed *view*
onto that layer — its properties keep every existing call site (faults,
reliability, diagnostics, the DISCO engine) working unchanged, while the
per-cycle pipeline below indexes the arrays directly.  For plain and
DISCO routers the event kernel normally runs the same pipeline natively
(:mod:`repro.noc.native`); this Python pipeline is the tick-mode oracle
and the path every traced or faulted fabric takes.

:class:`Router` exposes what the DISCO router builds on: the stage
lists (:meth:`Router._stage_lists`), the SA losers and blocked VCs
:meth:`Router._switch_allocation` returns (the compression candidates
of §3.2 step-1), ``_can_send`` (the shadow-packet lock) and
``_on_first_flit_sent`` (shadow-packet abort, step-3).
"""

from __future__ import annotations

from array import array
from bisect import insort
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.noc.config import FlowControl, NocConfig
from repro.noc.fabric_state import (
    ENGINE_IDLE,
    NO_CLASS,
    NO_PORT,
    NO_VC,
    FabricState,
)
from repro.noc.flit import Packet
from repro.noc.topology import PORT_LOCAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

# InputVC states.
VC_IDLE = 0
VC_ROUTING = 1
VC_VA = 2
VC_ACTIVE = 3

_by_scan_key = attrgetter("scan_key")

#: Resolved lazily (import cycle): the stock ``Network.can_eject``, so the
#: SA hot path can tell "unmodified ejection policy" (inlinable token
#: check) from a subclass override or a test/fault monkey-patch.
_BASE_CAN_EJECT = None


def _base_can_eject():
    global _BASE_CAN_EJECT
    if _BASE_CAN_EJECT is None:
        from repro.noc.network import Network

        _BASE_CAN_EJECT = Network.can_eject
    return _BASE_CAN_EJECT


class InputVC:
    """One virtual-channel buffer of one input port (a fabric-state view).

    Holds at most one packet at a time (wormhole VC allocation: the VC is
    bound to a packet from head to tail).  Buffering is tracked as flit
    counts; ``incoming`` counts flits already launched on the link toward
    this VC, so ``free_slots`` is the sender-visible credit count.

    The object itself holds only *structure* (router, port, vc index, the
    flat ``vid``); every mutable field reads/writes the fabric's arrays.
    """

    __slots__ = ("router", "port", "vc_index", "scan_key", "depth", "vid", "fs")

    def __init__(
        self, router: "Router", port: int, vc_index: int, depth: int,
        fs: FabricState, vid: int,
    ):
        self.router = router
        self.port = port
        self.vc_index = vc_index
        #: Position in the router's ``all_vcs`` scan order — keeps the
        #: bound-VC active list sorted identically to a full scan.
        self.scan_key = 0
        self.depth = depth
        self.fs = fs
        self.vid = vid
        fs.views[vid] = self

    # -- typed view onto the fabric arrays -----------------------------------
    @property
    def packet(self) -> Optional[Packet]:
        handle = self.fs.pkt_id[self.vid]
        return None if handle < 0 else self.fs.packets[handle]

    @packet.setter
    def packet(self, value: Optional[Packet]) -> None:
        self.fs.pkt_id[self.vid] = -1 if value is None else self.fs.handle(value)

    @property
    def state(self) -> int:
        return self.fs.state[self.vid]

    @state.setter
    def state(self, value: int) -> None:
        self.fs.state[self.vid] = value

    @property
    def flits_present(self) -> int:
        return self.fs.flits_present[self.vid]

    @flits_present.setter
    def flits_present(self, value: int) -> None:
        self.fs.flits_present[self.vid] = value

    @property
    def flits_received(self) -> int:
        return self.fs.flits_received[self.vid]

    @flits_received.setter
    def flits_received(self, value: int) -> None:
        self.fs.flits_received[self.vid] = value

    @property
    def flits_sent(self) -> int:
        return self.fs.flits_sent[self.vid]

    @flits_sent.setter
    def flits_sent(self, value: int) -> None:
        self.fs.flits_sent[self.vid] = value

    @property
    def incoming(self) -> int:
        return self.fs.incoming[self.vid]

    @incoming.setter
    def incoming(self, value: int) -> None:
        self.fs.incoming[self.vid] = value

    @property
    def reserved(self) -> bool:
        return bool(self.fs.reserved[self.vid])

    @reserved.setter
    def reserved(self, value: bool) -> None:
        self.fs.reserved[self.vid] = 1 if value else 0

    @property
    def out_port(self) -> int:
        return self.fs.out_port[self.vid]

    @out_port.setter
    def out_port(self, value: int) -> None:
        self.fs.out_port[self.vid] = value

    @property
    def out_vc_class(self) -> Optional[int]:
        value = self.fs.out_vc_class[self.vid]
        return None if value == NO_CLASS else value

    @out_vc_class.setter
    def out_vc_class(self, value: Optional[int]) -> None:
        self.fs.out_vc_class[self.vid] = NO_CLASS if value is None else value

    @property
    def out_vc(self) -> Optional["InputVC"]:
        target = self.fs.out_vc[self.vid]
        return None if target == NO_VC else self.fs.views[target]

    @out_vc.setter
    def out_vc(self, value: Optional["InputVC"]) -> None:
        self.fs.out_vc[self.vid] = NO_VC if value is None else value.vid

    @property
    def engine_job(self):
        return self.fs.engine_job[self.vid]

    @engine_job.setter
    def engine_job(self, value) -> None:
        self.fs.engine_job[self.vid] = value

    @property
    def wait_cycles(self) -> int:
        return self.fs.wait_cycles[self.vid]

    @wait_cycles.setter
    def wait_cycles(self, value: int) -> None:
        self.fs.wait_cycles[self.vid] = value

    @property
    def credit_debt(self) -> int:
        return self.fs.credit_debt[self.vid]

    @credit_debt.setter
    def credit_debt(self, value: int) -> None:
        self.fs.credit_debt[self.vid] = value

    @property
    def wedged_until(self) -> int:
        return self.fs.wedged_until[self.vid]

    @wedged_until.setter
    def wedged_until(self, value: int) -> None:
        self.fs.wedged_until[self.vid] = value

    # -- credit view --------------------------------------------------------
    def free_slots(self) -> int:
        """Sender-visible credits (never negative; decompression overflow
        is absorbed by the engine's staging registers)."""
        fs = self.fs
        i = self.vid
        slots = (
            fs.depth - fs.flits_present[i] - fs.incoming[i] - fs.credit_debt[i]
        )
        return slots if slots > 0 else 0

    def occupancy(self) -> int:
        """Buffered + in-flight flits (the congestion signal DISCO reads)."""
        fs = self.fs
        i = self.vid
        return fs.flits_present[i] + fs.incoming[i]

    def is_free(self) -> bool:
        fs = self.fs
        i = self.vid
        return (
            fs.pkt_id[i] < 0
            and not fs.reserved[i]
            and fs.incoming[i] == 0
        )

    # -- lifecycle ----------------------------------------------------------
    def accept_flit(self, handle: int, is_head: bool) -> None:
        """Deliver one flit of the packet behind fabric ``handle`` into
        the buffer (buffer-write stage); a head binds the handle."""
        fs = self.fs
        i = self.vid
        if fs.incoming[i] > 0:
            fs.incoming[i] -= 1
        if is_head:
            if fs.pkt_id[i] >= 0:
                raise RuntimeError(
                    f"VC collision at router {self.router.node} "
                    f"port {self.port} vc {self.vc_index}"
                )
            fs.pkt_id[i] = handle
            self.router._bind_vc(self)
            fs.reserved[i] = 0
            fs.state[i] = VC_ROUTING
            fs.flits_received[i] = 0
            fs.flits_sent[i] = 0
            fs.wait_cycles[i] = 0
        fs.flits_present[i] += 1
        fs.flits_received[i] += 1

    def force_release(self) -> int:
        """Squash-evict whatever packet state this VC holds.

        Recovery path of :mod:`repro.noc.reliability`: the invariant
        monitor empties every VC along a stalled packet's wormhole chain
        and requeues a pristine copy through the retransmission path.
        Returns the buffered flit count removed (the caller accounts for
        it in ``recovered.flits_squashed``).  Clears a fault-injected
        wedge so the repaired VC is immediately usable, and releases a
        downstream reservation whose head flit will now never arrive.
        The caller must purge in-flight arrivals targeting this VC (and
        decrement ``incoming``) *before* calling.
        """
        fs = self.fs
        i = self.vid
        removed = fs.flits_present[i]
        target = fs.out_vc[i]
        if (
            target != NO_VC
            and fs.pkt_id[target] < 0
            and fs.reserved[target]
        ):
            fs.reserved[target] = 0
        self.release()
        fs.reserved[i] = 0
        fs.wedged_until[i] = -1
        return removed

    def release(self) -> None:
        """Free the VC after the tail flit has left."""
        fs = self.fs
        i = self.vid
        if fs.pkt_id[i] >= 0:
            self.router._unbind_vc(self)
        fs.pkt_id[i] = -1
        fs.state[i] = VC_IDLE
        fs.flits_present[i] = 0
        fs.flits_received[i] = 0
        fs.flits_sent[i] = 0
        fs.out_port[i] = NO_PORT
        fs.out_vc_class[i] = NO_CLASS
        fs.out_vc[i] = NO_VC
        fs.engine_job[i] = None
        fs.engine_vc[i] = ENGINE_IDLE
        fs.wait_cycles[i] = 0

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Dynamic buffer state; structural fields (router/port/depth) are
        reconstructed, and the downstream VC reference is path-encoded.

        The numeric fields are also captured wholesale by the fabric's
        :meth:`~repro.noc.fabric_state.FabricState.state_dict` (the
        authoritative copy on restore); they are repeated here so a VC
        snapshot stays self-describing for diagnostics and tests.

        ``engine_job`` is deliberately absent: the DISCO engine owns the
        job objects and re-links them when its own state loads.
        """
        out_vc = self.out_vc
        return {
            "packet": self.packet,
            "state": self.state,
            "flits_present": self.flits_present,
            "flits_received": self.flits_received,
            "flits_sent": self.flits_sent,
            "incoming": self.incoming,
            "reserved": self.reserved,
            "out_port": self.out_port,
            "out_vc_class": self.out_vc_class,
            "out_vc": (
                None
                if out_vc is None
                else (out_vc.router.node, out_vc.port, out_vc.vc_index)
            ),
            "wait_cycles": self.wait_cycles,
            "credit_debt": self.credit_debt,
            "wedged_until": self.wedged_until,
        }

    def load_state(self, state: dict, network: "Network") -> None:
        self.packet = state["packet"]
        self.state = state["state"]
        self.flits_present = state["flits_present"]
        self.flits_received = state["flits_received"]
        self.flits_sent = state["flits_sent"]
        self.incoming = state["incoming"]
        self.reserved = state["reserved"]
        self.out_port = state["out_port"]
        self.out_vc_class = state["out_vc_class"]
        path = state["out_vc"]
        if path is None:
            self.out_vc = None
        else:
            node, port, vc_index = path
            self.out_vc = network.routers[node].inputs[port][vc_index]
        self.engine_job = None
        self.wait_cycles = state["wait_cycles"]
        self.credit_debt = state["credit_debt"]
        self.wedged_until = state["wedged_until"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VC r{self.router.node} p{self.port} v{self.vc_index} "
            f"state={self.state} buf={self.flits_present}>"
        )


class Router:
    """A single fabric router; see module docstring for the pipeline model.

    The port layout is driven by the topology's per-node radix (5 on the
    Table 2 mesh, 3 on a ring, 2 on a cmesh leaf, ...); port 0 is always
    the local injection/ejection port.
    """

    def __init__(self, node: int, config: NocConfig, network: "Network"):
        self.node = node
        self.config = config
        self.network = network
        self.topology = network.topology
        self.mesh = network.topology  # legacy alias (pre-fabric callers)
        self.radix = self.topology.radix(node)
        fs = network.fabric
        self.fs = fs
        self.inputs: List[List[InputVC]] = [
            [
                InputVC(
                    self, port, vc, config.vc_depth, fs, fs.vid(node, port, vc)
                )
                for vc in range(config.vcs_per_port)
            ]
            for port in range(self.radix)
        ]
        #: Flattened VC list (diagnostics, faults, the invariant monitor).
        self.all_vcs: List[InputVC] = [
            vc for port_vcs in self.inputs for vc in port_vcs
        ]
        for index, vc in enumerate(self.all_vcs):
            vc.scan_key = index
        #: This router's contiguous slice of the fabric's VC id space.
        self._vid_lo = fs.vc_base[node]
        self._vid_hi = self._vid_lo + len(self.all_vcs)
        #: Bound-VC active list of the Python pipeline: every VC holding a
        #: packet, sorted by ``scan_key``.  The stages iterate this short
        #: list instead of scanning all ``radix × vcs_per_port`` buffers —
        #: iteration order (and thus arbitration) is identical to a full
        #: scan because the sort key *is* the scan position.  The native
        #: sweep binds heads by writing ``pkt_id`` alone, so the list is
        #: rebuilt (:meth:`_rebind`) whenever this router returns to the
        #: Python pipeline; everything else reads the arrays.
        self._bound: List[InputVC] = []
        #: SA round-robin pointer per output port: this router's slice of
        #: the fabric's ``sa_rr`` array (shared with the native sweep).
        rr_base = fs.port_base[node]
        self._sa_rr = memoryview(fs.sa_rr)[rr_base:rr_base + self.radix]
        # Round-robin key space: (port, vc) -> port * stride + vc.  The
        # floors of 8 keep the Table 2 mesh arithmetic (stride 8, span 64)
        # bit-identical to the fixed-radix implementation.
        self._rr_stride = max(8, config.vcs_per_port)
        self._rr_span = self._rr_stride * max(8, self.radix)
        # Hot-path precomputation.  The flags let the per-cycle pipeline
        # skip hook dispatch entirely on the plain router (subclasses that
        # override a hook are detected once here, not per flit).
        self._saf = config.flow_control is FlowControl.STORE_AND_FORWARD
        self._whole_packet = config.flow_control in (
            FlowControl.VIRTUAL_CUT_THROUGH,
            FlowControl.STORE_AND_FORWARD,
        )
        self._link_latency = config.link_latency
        self._plain_can_send = type(self)._can_send is Router._can_send
        self._ff_hook = (
            type(self)._on_first_flit_sent is not Router._on_first_flit_sent
        )
        #: (out_port, vnet, vc_class) -> downstream candidate VCs in scan
        #: order; the topology is static so the lists never change.
        self._va_candidates: Dict[tuple, List[InputVC]] = {}

    # -- bound-VC bookkeeping -------------------------------------------------
    def _bind_vc(self, vc: InputVC) -> None:
        insort(self._bound, vc, key=_by_scan_key)

    def _unbind_vc(self, vc: InputVC) -> None:
        self._bound.remove(vc)

    def _rebind(self) -> None:
        """Rebuild ``_bound`` from ``pkt_id`` (scan order)."""
        pkt_id = self.fs.pkt_id
        self._bound = [vc for vc in self.all_vcs if pkt_id[vc.vid] >= 0]

    # -- queries used by DISCO and flow control ------------------------------
    def input_port_occupancy(self, port: int) -> int:
        """Total flits buffered/in-flight on one input port."""
        fs = self.fs
        lo = self._vid_lo + port * fs.vcs_per_port
        hi = lo + fs.vcs_per_port
        fp = fs.flits_present
        inc = fs.incoming
        total = 0
        for i in range(lo, hi):
            total += fp[i] + inc[i]
        return total

    def downstream_occupancy(self, out_port: int) -> int:
        """Occupancy of the input port this output port feeds (credit_in)."""
        if out_port == PORT_LOCAL:
            return 0
        neighbor = self.topology.neighbor[self.node].get(out_port)
        if neighbor is None:
            return 0
        return self.network.routers[neighbor].input_port_occupancy(
            self.topology.neighbor_port(self.node, out_port)
        )

    def local_contention(self, out_port: int, exclude: InputVC) -> int:
        """Flits buffered locally that also head for ``out_port``
        (credit_out / competitor pressure in Eq. (1)/(2)).

        Scans every buffer rather than the bound-VC list: it is off the
        per-flit hot path and diagnostics poke VC state directly.
        """
        fs = self.fs
        ports = fs.out_port
        fp = fs.flits_present
        exclude_vid = exclude.vid
        total = 0
        for i in range(self._vid_lo, self._vid_hi):
            if i != exclude_vid and ports[i] == out_port:
                total += fp[i]
        return total

    def has_work(self) -> bool:
        """Cheap idle test so the network can skip quiescent routers: a
        bound VC (state not ``VC_IDLE``), a flit in flight toward one, or
        a reservation."""
        fs = self.fs
        lo = self._vid_lo
        hi = self._vid_hi
        return (
            any(fs.state[lo:hi])
            or any(fs.incoming[lo:hi])
            or any(fs.reserved[lo:hi])
        )

    # -- per-cycle pipeline --------------------------------------------------
    def tick(self, cycle: Optional[int] = None) -> None:
        """One cycle: SA/ST first, then VA, then RC (stage separation)."""
        sa, va, rc = self._stage_lists()
        if sa is not None:
            self._switch_allocation(sa)
        if va is not None:
            self._vc_allocation(va)
        if rc is not None:
            self._route_computation(rc)

    def _stage_lists(self):
        """``(sa, va, rc)``: the bound VCs each stage works on this cycle
        (``None`` for an empty stage).

        A single pass over the bound VCs snapshots each stage's work list,
        then the stages run in pipeline order — identical to three separate
        scans because a VC is in exactly one state at scan time and stage
        processing never moves a VC into an *earlier* stage's set within
        the same cycle.
        """
        fs = self.fs
        states = fs.state
        fp = fs.flits_present
        sa = va = rc = None
        for vc in self._bound:
            i = vc.vid
            state = states[i]
            if state == VC_ACTIVE:
                if fp[i]:
                    if sa is None:
                        sa = [vc]
                    else:
                        sa.append(vc)
            elif state == VC_VA:
                if va is None:
                    va = [vc]
                else:
                    va.append(vc)
            elif state == VC_ROUTING:
                if rc is None:
                    rc = [vc]
                else:
                    rc.append(vc)
        return sa, va, rc

    # .. stage 3+2b: switch allocation and traversal ..........................
    def _switch_allocation(self, active: List[InputVC]):
        """SA and ST for ``active``; returns ``(losers, blocked)``: the VCs
        that lost arbitration (in output-port order) and those that could
        not request at all (``None`` when empty)."""
        network = self.network
        now = network.kernel.cycle
        saf = self._saf
        plain = self._plain_can_send
        fs = self.fs
        out_ports = fs.out_port
        wedged = fs.wedged_until
        fp = fs.flits_present
        inc = fs.incoming
        debt = fs.credit_debt
        out_vcs = fs.out_vc
        depth = fs.depth
        # The eject-token pool only changes when a flit is actually sent,
        # and at most one local-port winner sends per cycle, so the check
        # hoists out of the partition loop — but only for the stock
        # ejection policy: a replaced ``can_eject`` (subclass or
        # test/fault monkey-patch) must be consulted per VC.
        eject_call = None
        if plain:
            eject_fn = network.can_eject
            if getattr(eject_fn, "__func__", None) is _base_can_eject():
                eject_ok = fs.eject_tokens[self.node] > 0
            else:
                eject_call = eject_fn
        else:
            eject_ok = False
        single: Optional[List[InputVC]] = None  # all requesters, one port
        requests: Optional[Dict[int, List[InputVC]]] = None
        blocked: Optional[List[InputVC]] = None
        for vc in active:
            i = vc.vid
            if plain:
                out_port = out_ports[i]
                if wedged[i] > now:
                    ok = False  # fault-injected wedge (repro.faults)
                elif saf and fs.flits_received[i] < (
                    fs.packets[fs.pkt_id[i]].size_flits
                ):
                    ok = False
                elif out_port == PORT_LOCAL:
                    ok = (
                        eject_ok
                        if eject_call is None
                        else eject_call(self.node)
                    )
                else:
                    t = out_vcs[i]
                    ok = (depth - fp[t] - inc[t] - debt[t]) > 0
            else:
                ok = self._can_send(vc)
                out_port = out_ports[i]
            if not ok:
                fs.wait_cycles[i] += 1
                if blocked is None:
                    blocked = [vc]
                else:
                    blocked.append(vc)
            elif requests is not None:
                requests.setdefault(out_port, []).append(vc)
            elif single is None:
                single = [vc]
            elif out_ports[single[0].vid] == out_port:
                single.append(vc)
            else:
                requests = {out_ports[single[0].vid]: single, out_port: [vc]}
                single = None

        losers: Optional[List[InputVC]] = None
        if single is not None:
            # The overwhelmingly common shape (one output port requested):
            # no cross-port input conflicts are possible, so the used-input
            # filtering reduces to a single arbitration.
            winner = self._arbitrate(out_ports[single[0].vid], single)
            self._send_flit(winner)
            if len(single) > 1:
                losers = [vc for vc in single if vc is not winner]
        elif requests is not None:
            used_inputs = set()
            winners: List[InputVC] = []
            losers = []
            for out_port in sorted(requests):
                candidates = [
                    vc for vc in requests[out_port] if vc.port not in used_inputs
                ]
                if not candidates:
                    losers.extend(requests[out_port])
                    continue
                winner = self._arbitrate(out_port, candidates)
                used_inputs.add(winner.port)
                winners.append(winner)
                losers.extend(
                    vc for vc in requests[out_port] if vc is not winner
                )
            for vc in winners:
                self._send_flit(vc)
            if not losers:
                losers = None

        if losers is not None:
            stats = network.stats
            wait = fs.wait_cycles
            for vc in losers:
                wait[vc.vid] += 1
                stats.sa_losses += 1
        return losers, blocked

    def _can_send(self, vc: InputVC) -> bool:
        packet = vc.packet
        assert packet is not None
        if vc.wedged_until > self.network.cycle:
            return False  # fault-injected wedge (repro.faults)
        if self.config.flow_control is FlowControl.STORE_AND_FORWARD:
            if vc.flits_received < packet.size_flits:
                return False
        if vc.out_port == PORT_LOCAL:
            return self.network.can_eject(self.node)
        target = vc.out_vc
        assert target is not None
        return target.free_slots() > 0

    def _arbitrate(self, out_port: int, candidates: List[InputVC]) -> InputVC:
        """Highest effective priority wins; round-robin among equals."""
        stride, span = self._rr_stride, self._rr_span
        if len(candidates) == 1:
            winner = candidates[0]
        else:
            priorities = [self._priority(vc) for vc in candidates]
            best_priority = max(priorities)
            top = [
                vc
                for vc, priority in zip(candidates, priorities)
                if priority == best_priority
            ]
            pointer = self._sa_rr[out_port]
            top.sort(
                key=lambda vc: ((vc.port * stride + vc.vc_index) - pointer) % span
            )
            winner = top[0]
        self._sa_rr[out_port] = (winner.port * stride + winner.vc_index + 1) % span
        return winner

    def _priority(self, vc: InputVC) -> int:
        packet = self.fs.packets[self.fs.pkt_id[vc.vid]]
        assert packet is not None
        return self.network.packet_priority(packet)

    def _send_flit(self, vc: InputVC) -> None:
        fs = self.fs
        i = vc.vid
        handle = fs.pkt_id[i]
        packet = fs.packets[handle]
        network = self.network
        stats = network.stats
        if fs.flits_sent[i] == 0 and self._ff_hook:
            self._on_first_flit_sent(vc)
        fs.flits_present[i] -= 1
        sent = fs.flits_sent[i] + 1
        fs.flits_sent[i] = sent
        stats.buffer_reads += 1
        stats.crossbar_flits += 1
        stats.sa_grants += 1
        is_head = sent == 1
        is_tail = sent == packet.size_flits
        tracer = network.tracer
        out_port = fs.out_port[i]
        if tracer is not None:
            cycle = network.kernel.cycle
            if is_head:
                tracer.on_switch_granted(cycle, packet, self.node, out_port)
            if is_tail:
                tracer.on_tail_sent(cycle, packet, self.node, out_port)
        if out_port == PORT_LOCAL:
            network.eject_flit(self.node, handle, is_tail)
        else:
            t = fs.out_vc[i]
            fs.incoming[t] += 1
            stats.link_flits += 1
            network.arrival_queue.schedule(
                network.kernel.cycle + self._link_latency,
                fs.views[t],
                handle,
                is_head,
                is_tail,
            )
        if is_tail:
            if fs.flits_present[i] != 0:
                raise RuntimeError(
                    f"tail sent with {fs.flits_present[i]} flits still buffered"
                )
            vc.release()

    # .. stage 2a: VC allocation ..............................................
    def _vc_allocation(self, vcs: List[InputVC]) -> None:
        network = self.network
        tracer = network.tracer
        stats = network.stats
        fs = self.fs
        states = fs.state
        packets = fs.packets
        pkt_id = fs.pkt_id
        for vc in vcs:
            i = vc.vid
            packet = packets[pkt_id[i]]
            out_port = fs.out_port[i]
            if out_port == PORT_LOCAL:
                states[i] = VC_ACTIVE
                stats.va_grants += 1
                if tracer is not None:
                    tracer.on_vc_allocated(
                        network.kernel.cycle, packet, self.node, out_port
                    )
                continue
            target = self._allocate_downstream_vc(vc, packet)
            if target is None:
                fs.wait_cycles[i] += 1
                continue
            fs.reserved[target.vid] = 1
            fs.out_vc[i] = target.vid
            states[i] = VC_ACTIVE
            stats.va_grants += 1
            if tracer is not None:
                tracer.on_vc_allocated(
                    network.kernel.cycle, packet, self.node, out_port
                )

    def _allocate_downstream_vc(
        self, vc: InputVC, packet: Packet
    ) -> Optional[InputVC]:
        whole_packet = self._whole_packet
        if whole_packet and packet.size_flits > self.config.vc_depth:
            raise RuntimeError(
                f"{self.config.flow_control.value} needs vc_depth >= packet "
                f"size ({packet.size_flits} flits > {self.config.vc_depth})"
            )
        fs = self.fs
        key = (
            fs.out_port[vc.vid],
            packet.ptype.vnet,
            fs.out_vc_class[vc.vid],
        )
        candidates = self._va_candidates.get(key)
        if candidates is None:
            candidates = self._build_va_candidates(*key)
            self._va_candidates[key] = candidates
        size = packet.size_flits
        pkt_id = fs.pkt_id
        res = fs.reserved
        inc = fs.incoming
        for candidate in candidates:
            c = candidate.vid
            if pkt_id[c] < 0 and not res[c] and inc[c] == 0:
                if whole_packet and candidate.free_slots() < size:
                    continue
                return candidate
        return None

    def _build_va_candidates(
        self, out_port: int, vnet: int, vc_class: int
    ) -> List[InputVC]:
        """Downstream VCs eligible for (out_port, vnet, class), scan order.

        The topology never changes mid-run, so the filtered list is built
        once per key and reused every VC allocation.  ``vc_class`` uses
        the array encoding (``NO_CLASS`` = unconstrained).
        """
        neighbor = self.topology.neighbor[self.node].get(out_port)
        assert neighbor is not None, "deterministic routing never exits the fabric"
        in_port = self.topology.neighbor_port(self.node, out_port)
        if vc_class == NO_CLASS:
            allowed = self.config.vnet_vcs(vnet)
        else:
            # Dateline routing: restrict allocation to the escape class
            # chosen at route computation.
            allowed = self.config.escape_class_vcs(vnet, vc_class)
        router = self.network.routers[neighbor]
        return [
            candidate
            for candidate in router.inputs[in_port]
            if candidate.vc_index in allowed
        ]

    # .. stage 1: route computation ...........................................
    def _route_computation(self, vcs: List[InputVC]) -> None:
        network = self.network
        tracer = network.tracer
        route = network.route
        node = self.node
        fs = self.fs
        packets = fs.packets
        pkt_id = fs.pkt_id
        for vc in vcs:
            i = vc.vid
            packet = packets[pkt_id[i]]
            out_port, vc_class = route(node, packet.dst)
            fs.out_port[i] = out_port
            fs.out_vc_class[i] = NO_CLASS if vc_class is None else vc_class
            fs.state[i] = VC_VA
            if tracer is not None:
                tracer.on_route_computed(
                    network.kernel.cycle, packet, node, out_port
                )

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        """Every VC's dynamic state plus the SA round-robin pointers.

        Derived structures are skipped: ``_va_candidates`` is a pure cache
        over the static topology and ``_bound`` is rebuilt from the VCs
        that hold a packet (its sort key is the scan position, so the
        rebuild is order-identical to the incremental maintenance).
        """
        return {
            "version": 1,
            "vcs": [vc.state_dict() for vc in self.all_vcs],
            "sa_rr": list(self._sa_rr),
        }

    def load_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported Router state version {state.get('version')!r}"
            )
        for vc, vc_state in zip(self.all_vcs, state["vcs"]):
            vc.load_state(vc_state, self.network)
        self._sa_rr[:] = array("q", state["sa_rr"])
        self._rebind()

    # -- DISCO hook point -----------------------------------------------------
    def _on_first_flit_sent(self, vc: InputVC) -> None:
        """Called when a packet starts leaving this router.

        The DISCO router uses this to abort an in-flight (de)compression of
        the shadow packet (§3.2 step-3, non-blocking compression).
        """
