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

Object-valued state (the bound :class:`~repro.noc.flit.Packet`, the
DISCO engine job) stays in parallel Python lists — packets are live
objects that must keep identity through checkpoints.

Encodings (all fields are signed 64-bit):

==================  =====================================================
``state``           VC pipeline state (``VC_IDLE`` exactly when no packet is bound)
``out_port``        RC decision; ``-1`` = none
``out_vc_class``    dateline escape class; ``NO_CLASS`` (-1) = unconstrained
``out_vc``          downstream VC id; ``NO_VC`` (-1) = none
``reserved``        0/1 flag
``wedged_until``    fault wedge deadline; ``-1`` = never wedged
``eject_tokens``    per-*node* ejection flow-control credits
``pkt_size``        mirror of the bound packet's ``size_flits``
``pkt_vnet``        mirror of the bound packet's vnet
``pkt_dst``         mirror of the bound packet's destination node
``pkt_prio``        mirror of ``network.packet_priority(packet)``
``pkt_cand``        mirror of the DISCO arbitrator's packet filter
                    (``CAND_NONE`` / ``CAND_COMPRESS`` / ``CAND_DECOMPRESS``)
``engine_vc``       the VC's DISCO engine job: ``ENGINE_IDLE``,
                    ``ENGINE_ABORTABLE`` or ``ENGINE_LOCKED``
``engine_jobs``     per-*node* ``len(engine.jobs)`` (0 on a plain router)
``engine_cap``      per-*node* engine slots (0 on a plain router)
``sa_rr``           per-(router, output port) SA round-robin pointer
==================  =====================================================

The ``pkt_*`` mirrors are written when a head flit binds a packet
(:meth:`FabricState.mirror_packet`; on the native path, copied from the
stash the arrival ring took from the sending VC) and again by the DISCO
engine when a job completion changes the packet, so code that cannot
see the packet objects (the native sweep) can read them.  ``engine_vc`` and
``engine_jobs`` are written by the engine whenever a job starts,
commits, aborts or ends.  All of them are derived state: never
checkpointed, rebuilt from the live objects on restore.

The arrays are fixed-size for the life of the fabric (topologies never
grow mid-run), which is what makes binding to their addresses safe: an
``array.array`` buffer only moves on resize, and we never resize.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

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

#: The per-VC mirrors of the bound packet, in ``mirror_values`` order
#: (the order the arrival ring stashes a head flit's mirrors in).
MIRRORS = ("pkt_size", "pkt_vnet", "pkt_dst", "pkt_prio", "pkt_cand")

#: Fields initialised to -1 rather than 0.
_MINUS_ONE_FIELDS = frozenset(("out_port", "out_vc_class", "out_vc", "wedged_until"))


class FabricState:
    """Preallocated struct-of-arrays state for one fabric instance."""

    def __init__(self, topology, vcs_per_port: int, vc_depth: int,
                 ejection_bandwidth: int):
        self.topology = topology
        self.vcs_per_port = vcs_per_port
        #: Uniform VC buffer depth (structural, not per-VC state).
        self.depth = vc_depth
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
        self.eject_tokens = array("q", [ejection_bandwidth] * n_nodes)
        #: Bound-packet and engine mirrors (see the module docstring).
        self.pkt_size = array("q", zeros)
        self.pkt_vnet = array("q", zeros)
        self.pkt_dst = array("q", zeros)
        self.pkt_prio = array("q", zeros)
        self.pkt_cand = array("q", zeros)
        self.engine_vc = array("q", zeros)
        self.engine_jobs = array("q", bytes(8 * n_nodes))
        self.engine_cap = array("q", bytes(8 * n_nodes))
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
        self.packet: List[Optional[object]] = [None] * total
        self.engine_job: List[Optional[object]] = [None] * total
        #: ``vid -> InputVC`` view objects, filled in by the routers at
        #: construction so ``out_vc`` ids can resolve back to views.
        self.views: List[Optional[object]] = [None] * total

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

    def mirror_values(self, packet) -> Tuple[int, int, int, int, int]:
        """The ``pkt_*`` mirror values of ``packet``, in ``MIRRORS`` order."""
        candidate = self.candidate_filter
        return (
            packet.size_flits,
            packet.ptype.vnet,
            packet.dst,
            self.priority(packet),
            0 if candidate is None else candidate(packet),
        )

    def mirror_packet(self, vid: int, packet) -> None:
        """Write the ``pkt_*`` mirrors of the packet bound to ``vid``."""
        (
            self.pkt_size[vid],
            self.pkt_vnet[vid],
            self.pkt_dst[vid],
            self.pkt_prio[vid],
            self.pkt_cand[vid],
        ) = self.mirror_values(packet)

    def refresh_mirrors(self) -> None:
        """Rebuild the ``pkt_*`` mirrors from the bound packets (after a
        restore or a policy change: the mirrors are derived state, never
        checkpointed).  The engine mirrors are the engines' own."""
        for vid, packet in enumerate(self.packet):
            if packet is None:
                for name in MIRRORS:
                    getattr(self, name)[vid] = 0
            else:
                self.mirror_packet(vid, packet)

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
