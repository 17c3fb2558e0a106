"""Fabric-owned struct-of-arrays state for the NoC dataplane.

Every mutable numeric field the routers, input VCs and ejection flow
control used to keep as per-object attributes lives here instead, in
preallocated flat arrays indexed by a global *VC id*::

    vid = vc_base[node] + port * vcs_per_port + vc_index

The layout is the Siegl/GPU bufferless-NoC idea (arXiv:1508.03235)
applied to this simulator: router state swept as arrays rather than
object-at-a-time.  The buffers are ``array.array('q')``: indexing them
from Python is about as fast as a ``__slots__`` attribute read, so the
Python router path keeps its speed (:class:`InputVC`,
:mod:`repro.noc.router`, is a typed *view* whose properties read/write
these buffers), and their addresses are stable, so the native router
sweep (:mod:`repro.noc.native`) binds to the very same memory.

Object-valued state stays in Python lists.  Each packet in the fabric
has an integer *handle* into the fabric's handle table (``packets``:
handle -> :class:`~repro.noc.flit.Packet`, with a free list): a VC holds
the handle of its bound packet in ``pkt_id`` (-1: none), the arrival
ring carries it with every link flit, and an NI queue or stream names
its packet by it.  A handle is allocated when an NI queues the packet
and freed when the packet's tail leaves the fabric (ejection or squash);
it is not ``Packet.pid`` (process-global, part of fingerprints).  The
DISCO engine's jobs stay in the parallel ``engine_job`` list.

Encodings (all fields are signed 64-bit):

==================  =====================================================
``state``           VC pipeline state (``VC_IDLE`` exactly when no packet is bound)
``pkt_id``          handle of the bound packet; ``-1`` = none
``out_port``        RC decision; ``-1`` = none
``out_vc_class``    dateline escape class; ``NO_CLASS`` (-1) = unconstrained
``out_vc``          downstream VC id; ``NO_VC`` (-1) = none
``reserved``        0/1 flag
``wedged_until``    fault wedge deadline; ``-1`` = never wedged
``eject_tokens``    per-*node* ejection flow-control credits
``engine_vc``       the VC's DISCO engine job: ``ENGINE_IDLE``,
                    ``ENGINE_ABORTABLE`` or ``ENGINE_LOCKED``
``engine_jobs``     per-*node* ``len(engine.jobs)`` (0 on a plain router)
``engine_cap``      per-*node* engine slots (0 on a plain router)
``sa_rr``           per-(router, output port) SA round-robin pointer
==================  =====================================================

Per *handle* (indexed by ``pkt_id``), the packet mirrors and hop count:

==================  =====================================================
``pkt_size``        the packet's ``size_flits``
``pkt_vnet``        its vnet
``pkt_dst``         its destination node
``pkt_prio``        ``network.packet_priority(packet)``
``pkt_cand``        the DISCO arbitrator's packet filter
                    (``CAND_NONE`` / ``CAND_COMPRESS`` / ``CAND_DECOMPRESS``)
``pkt_hops``        hops traversed (authoritative while the handle lives)
==================  =====================================================

The mirrors depend on the packet alone, so they are written when the
handle is allocated, after a DISCO engine completion changes the packet,
and for every live handle when the priority policy changes.  ``pkt_hops``
is counted by whichever path lands a head flit; ``packet.hops_traversed``
is written back from it where Python reads it (:meth:`sync_hops`, and
:meth:`retire` when the packet leaves the fabric).

Per (node, vnet) ``q = node * vnets + vnet``, the NI injection state both
the Python NI and the native one (:mod:`repro.noc.native`) run on:

==================  =====================================================
``ni_vid``          target VC of the open stream; ``-1`` = no stream
``ni_pkt``          handle of the open stream's packet
``ni_sent``         flits of it sent so far
``ni_head``         handle of the injection queue's head; ``-1`` = empty
``ni_ready``        the cycle the queue head becomes streamable
==================  =====================================================

and per node ``ni_deliver``, the earliest ready cycle of the NI's
pending deliveries (``-1`` = none).  The rest of each injection queue
stays a Python deque in the NI.

``engine_vc`` and ``engine_jobs`` are written by the engine whenever a
job starts, commits, aborts or ends.  Handles, mirrors, hop counts and
the engine mirrors are derived state: never checkpointed, rebuilt from
the live objects on restore.

The per-VC and NI arrays are fixed-size for the life of the fabric
(topologies never grow mid-run), which is what makes binding to their
addresses safe: an ``array.array`` buffer only moves on resize.  The
per-handle arrays double when the table is full; :attr:`on_grow`
callbacks rebind to the new buffers.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional

#: Sentinel encodings for the Optional fields.
NO_PORT = -1
NO_CLASS = -1
NO_VC = -1

#: The per-VC mutable numeric fields, in checkpoint order.
VC_FIELDS = (
    "state",
    "flits_present",
    "flits_received",
    "flits_sent",
    "incoming",
    "reserved",
    "out_port",
    "out_vc_class",
    "out_vc",
    "wait_cycles",
    "credit_debt",
    "wedged_until",
)

#: ``pkt_cand`` codes: which engine job the arbitrator's packet filter
#: would pick (``DiscoArbitrator`` adds the routed-direction test).
CAND_NONE = 0
CAND_COMPRESS = 1
CAND_DECOMPRESS = 2

#: ``engine_vc`` codes.  A locked job keeps its shadow packet from
#: being scheduled (a committed streaming job, or any job without
#: non-blocking support); an abortable one is dropped when the shadow
#: sends its head flit.
ENGINE_IDLE = 0
ENGINE_ABORTABLE = 1
ENGINE_LOCKED = 2

#: The per-handle arrays: the packet mirrors and the hop count.
HANDLE_FIELDS = ("pkt_size", "pkt_vnet", "pkt_dst", "pkt_prio", "pkt_cand",
                 "pkt_hops")

#: Fields initialised to -1 rather than 0.
_MINUS_ONE_FIELDS = frozenset(("out_port", "out_vc_class", "out_vc", "wedged_until"))


class FabricState:
    """Preallocated struct-of-arrays state for one fabric instance."""

    def __init__(self, topology, config):
        """The plane of ``topology`` under ``config`` (a
        :class:`~repro.noc.config.NocConfig`)."""
        self.topology = topology
        vcs_per_port = config.vcs_per_port
        self.vcs_per_port = vcs_per_port
        #: Uniform VC buffer depth (structural, not per-VC state).
        self.depth = config.vc_depth
        #: Injection queues per NI.
        vnets = config.vnets
        self.vnets = vnets
        n_nodes = topology.n_nodes
        base: List[int] = []
        total = 0
        for node in range(n_nodes):
            base.append(total)
            total += topology.radix(node) * vcs_per_port
        #: ``vid`` of (node, port 0, vc 0) — plain list for fast indexing.
        self.vc_base = base
        self.n_vcs = total
        self.n_nodes = n_nodes

        zeros = bytes(8 * total)
        minus_ones = array("q", [-1]) * total
        for name in VC_FIELDS:
            if name in _MINUS_ONE_FIELDS:
                setattr(self, name, array("q", minus_ones))
            else:
                setattr(self, name, array("q", zeros))
        self.pkt_id = array("q", minus_ones)

        # Static reverse maps (vid -> node / port / vc index).
        vc_node = array("q", zeros)
        vc_port = array("q", zeros)
        vc_index = array("q", zeros)
        for node in range(n_nodes):
            radix = topology.radix(node)
            vid = base[node]
            for port in range(radix):
                for vc in range(vcs_per_port):
                    vc_node[vid] = node
                    vc_port[vid] = port
                    vc_index[vid] = vc
                    vid += 1
        self.vc_node = vc_node
        self.vc_port = vc_port
        self.vc_index = vc_index

        #: Ejection flow-control credits, one per node (start full).
        self.eject_tokens = array("q", [config.ejection_bandwidth] * n_nodes)
        #: Engine mirrors (see the module docstring).
        self.engine_vc = array("q", zeros)
        self.engine_jobs = array("q", bytes(8 * n_nodes))
        self.engine_cap = array("q", bytes(8 * n_nodes))
        #: NI injection state, per (node, vnet) and per node.
        queues = n_nodes * vnets
        self.ni_vid = array("q", [-1]) * queues
        self.ni_pkt = array("q", [-1]) * queues
        self.ni_sent = array("q", bytes(8 * queues))
        self.ni_head = array("q", [-1]) * queues
        self.ni_ready = array("q", bytes(8 * queues))
        self.ni_deliver = array("q", [-1]) * n_nodes
        #: The ``packet_priority`` policy behind ``pkt_prio`` (the
        #: network's, set through ``Network.packet_priority``).
        self.priority = None
        #: ``packet -> CAND_*`` filter behind ``pkt_cand``; installed by
        #: the first DISCO router, ``None`` on a fabric without engines.
        self.candidate_filter = None
        #: SA round-robin pointers, one per (router, output port), from
        #: ``port_base[node]``; each router indexes its slice as
        #: ``Router._sa_rr``.
        port_base: List[int] = []
        n_ports = 0
        for node in range(n_nodes):
            port_base.append(n_ports)
            n_ports += topology.radix(node)
        self.port_base = port_base
        self.sa_rr = array("q", bytes(8 * n_ports))

        # Object plane: live Python references, parallel to the arrays.
        self.engine_job: List[Optional[object]] = [None] * total
        #: ``vid -> InputVC`` view objects, filled in by the routers at
        #: construction so ``out_vc`` ids can resolve back to views.
        self.views: List[Optional[object]] = [None] * total
        #: Called with no arguments after the per-handle arrays moved.
        self.on_grow: List[Callable[[], None]] = []
        self._init_handles(max(64, total))

    # -- the handle table ----------------------------------------------------
    def _init_handles(self, capacity: int) -> None:
        #: handle -> live packet (``None``: free).
        self.packets: List[Optional[object]] = [None] * capacity
        #: Free handles, the next one to allocate last.
        self._free = list(range(capacity - 1, -1, -1))
        #: ``id(packet) -> handle`` of every live handle; the table holds
        #: the packet, so its id cannot be reused while it is here.
        self._handle_by_id: Dict[int, int] = {}
        zeros = bytes(8 * capacity)
        for name in HANDLE_FIELDS:
            setattr(self, name, array("q", zeros))

    def _grow(self) -> None:
        capacity = len(self.packets)
        self.packets.extend([None] * capacity)
        self._free = list(range(2 * capacity - 1, capacity - 1, -1))
        zeros = bytes(8 * capacity)
        for name in HANDLE_FIELDS:
            getattr(self, name).frombytes(zeros)
        for callback in self.on_grow:
            callback()

    def allocate(self, packet) -> int:
        """A new handle for ``packet``, its mirrors and hop count written."""
        if not self._free:
            self._grow()
        handle = self._free.pop()
        self.packets[handle] = packet
        self._handle_by_id[id(packet)] = handle
        self.mirror(handle)
        self.pkt_hops[handle] = packet.hops_traversed
        return handle

    def handle_of(self, packet) -> int:
        """The live handle of ``packet`` (-1: it has none)."""
        return self._handle_by_id.get(id(packet), -1)

    def handle(self, packet) -> int:
        """``packet``'s live handle, allocated if it has none."""
        handle = self._handle_by_id.get(id(packet), -1)
        return handle if handle >= 0 else self.allocate(packet)

    def retire(self, handle: int):
        """Free ``handle`` (its packet left the fabric); returns the packet
        with its hop count written back."""
        packet = self.packets[handle]
        packet.hops_traversed = self.pkt_hops[handle]
        self.packets[handle] = None
        del self._handle_by_id[id(packet)]
        self._free.append(handle)
        return packet

    def live_handles(self) -> int:
        """How many handles are allocated."""
        return len(self._handle_by_id)

    def reset_handles(self) -> None:
        """Free every handle and unbind every VC (a restore rebuilds them
        from the live packets)."""
        self._init_handles(len(self.packets))
        self.pkt_id[:] = array("q", [-1]) * self.n_vcs
        for callback in self.on_grow:
            callback()

    def sync_hops(self, lo: int = 0, hi: Optional[int] = None) -> None:
        """Write ``pkt_hops`` back into ``hops_traversed`` of the packets
        bound to VCs ``lo .. hi`` (every live packet when no range is
        given)."""
        packets = self.packets
        hops = self.pkt_hops
        if hi is None:
            for handle in self._handle_by_id.values():
                packets[handle].hops_traversed = hops[handle]
            return
        pkt_id = self.pkt_id
        for vid in range(lo, hi):
            handle = pkt_id[vid]
            if handle >= 0:
                packets[handle].hops_traversed = hops[handle]

    # -- addressing ----------------------------------------------------------
    def vid(self, node: int, port: int, vc_index: int) -> int:
        """Flat VC id of (node, port, vc)."""
        return self.vc_base[node] + port * self.vcs_per_port + vc_index

    def view(self, vid: int):
        """The :class:`~repro.noc.router.InputVC` view of a VC id."""
        return self.views[vid]

    # -- whole-fabric queries ------------------------------------------------
    def total_occupancy(self) -> int:
        """Buffered + in-flight flits across every VC (telemetry gauge)."""
        return sum(self.flits_present) + sum(self.incoming)

    def mirror(self, handle: int) -> None:
        """Write the ``pkt_*`` mirrors of the packet behind ``handle``."""
        packet = self.packets[handle]
        candidate = self.candidate_filter
        self.pkt_size[handle] = packet.size_flits
        self.pkt_vnet[handle] = packet.ptype.vnet
        self.pkt_dst[handle] = packet.dst
        self.pkt_prio[handle] = self.priority(packet)
        self.pkt_cand[handle] = 0 if candidate is None else candidate(packet)

    def refresh_mirrors(self) -> None:
        """Rebuild the ``pkt_*`` mirrors of every live handle (after a
        restore or a policy change).  The engine mirrors are the
        engines' own."""
        for handle in self._handle_by_id.values():
            self.mirror(handle)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """The authoritative numeric plane, field by field.

        Packets and engine jobs are deliberately absent: they are live
        objects owned by the VC views / the DISCO engine and travel
        through the system's single-pickle envelope alongside this.
        """
        state: Dict[str, object] = {"version": 1}
        for name in VC_FIELDS:
            state[name] = list(getattr(self, name))
        state["eject_tokens"] = list(self.eject_tokens)
        return state

    def load_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported FabricState version {state.get('version')!r}"
            )
        for name in VC_FIELDS:
            saved = state[name]
            target = getattr(self, name)
            if len(saved) != len(target):
                raise ValueError(
                    f"FabricState field {name!r} has {len(saved)} entries; "
                    f"this fabric has {len(target)} VCs"
                )
            target[:] = array("q", saved)
        tokens = state["eject_tokens"]
        if len(tokens) != len(self.eject_tokens):
            raise ValueError(
                f"FabricState has {len(tokens)} eject-token entries; "
                f"this fabric has {len(self.eject_tokens)} nodes"
            )
        self.eject_tokens[:] = array("q", tokens)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FabricState({self.n_nodes} nodes, {self.n_vcs} VCs)"
        )
