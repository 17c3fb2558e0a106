"""The native NoC dataplane: routers, link landings and NI injection in C.

``_sweep.c`` (plain C99, no Python headers) runs switch allocation,
switch traversal, VC allocation and route computation of every
:class:`Router` and :class:`~repro.core.disco_router.DiscoRouter`, lands
link flits and streams injected flits, all over the fabric's
struct-of-arrays plane (:mod:`repro.noc.fabric_state`).  This module
compiles it once with the local C compiler, loads it with :mod:`ctypes`
and installs :class:`NativeSweep` as the event kernel's ``net.routers``
phase driver and its :meth:`NativeSweep.inject` as the ``net.nis`` one;
the arrival queue calls :meth:`NativeSweep.land` in ``net.arrivals``.

Packets cross the boundary as integer handles (``FabricState.pkt_id``
per VC, the fabric's handle table in Python); the per-handle ``pkt_*``
arrays mirror what C needs to know of a packet and ``pkt_hops`` counts
its hops.

Split of the work, per cycle:

- **C, the arrival ring** (``net.arrivals``): a link send appends
  ``target vid << 2 | head | tail`` and the packet's handle to slot
  ``(cycle + L) % (L + 1)`` of the
  :class:`~repro.noc.network.ArrivalQueue` ring (the very arrays the
  Python ``_send_flit`` writes through ``ArrivalQueue.schedule``).  A
  send that puts the first flit into its slot has the queue woken for
  ``cycle + L``, as ``schedule`` does.  At ``cycle + L``, ``repro_land``
  does every flit's buffer write; a head binds by writing its handle to
  the VC's ``pkt_id`` and counts a hop.  Python adds ``buffer_writes``
  and wakes each distinct target router once.
- **C, routers** (``net.routers``), one call per run of consecutive
  natively swept routers, in node order: partition each router's VCs by
  stage; SA with the engine lock, wedge, SAF, credit and eject-token
  checks, priority-then-round-robin arbitration on ``pkt_prio`` and one
  winner per input port; ST's array updates, tail release included; VA
  against the neighbour VC tables; RC from the network's route table
  (``Network.route_table``, one packed ``out_port << 2 | (vc_class +
  1)`` per (node, destination), read through ``pkt_dst``).  Each router
  is skipped or ticked exactly as the kernel's default visit would, so
  wake counts match the Python path.
- **C, NI injection** (``net.nis``), one call over the due NIs, in node
  order: ``NetworkInterface.tick``'s streaming over the fabric's NI
  arrays (open a stream for a ready queue head on a free local VC,
  reserve it, send a flit when the VC has room, bind the head), then the
  NI's ``next_wake``.  Python wakes the local routers, refills each
  popped queue head from the NI's deque and re-arms the NIs in visit
  order (a CNC-delayed head or a pending delivery is a timed re-arm
  through the kernel's schedule).
- **Python**, replaying the ordered event buffer the router call wrote:
  ejections (``_eject_spent``; a tail retires its handle and calls
  ``complete_ejection``), engine aborts, the unlink of an engine job
  still held at a link tail, and route-table misses (``network.route``
  computes the decision and fills the entry, so routing stays
  pluggable).  Link sends of heads, bodies and tails, route-table hits
  and injected flits produce no event.
- **Post-work**: when a DISCO router's arbitrator or engine may act this
  cycle (the engine holds a job, or an SA/VA loser is a compression
  candidate the engine has room for), the call stops right after that
  router.  Python replays the events up to the router's RC events, runs
  ``DiscoRouter.post_tick`` (arbitrator, RC, arbitrator over VA-blocked
  VCs, engine cycle — the very code its Python ``tick`` ends with), reads
  ``has_work`` and resumes C at the next router.  Such a router's RC is
  never resolved in C: the arbitrator must read ``out_port`` before RC,
  and C decides the stop before RC.  Engine completions change
  ``flits_present``, which later routers read as credit in the same
  cycle, so the stop cannot be deferred.  Likewise the NI call stops at
  an NI with a pending delivery that is due: Python runs
  ``_deliver_pending`` (a delivery may queue a packet at a later NI in
  the same cycle) and resumes C at that NI's streams.

So Python sees a packet object only at ejection, in DISCO post-work and
on a route miss; ``packet.hops_traversed`` is written back from
``pkt_hops`` at those points, in a checkpoint and when the sweep turns
to Python (:meth:`FabricState.sync_hops`).

Side effects keep their order because a sweep never acts on another
router's effects within the same cycle: arrivals land a link latency
later, ejection deliveries only queue new packets at the NIs, and route
results are read by the next cycle's VA.

Eligibility is decided once per kernel cycle (:meth:`NativeSweep.reason`,
taken at the network's frame start and shared by the landing, the router
sweep and the NI visit), since faults, tracers and priority policies are
attached between steps:

- the whole cycle runs in Python while a packet tracer, kernel tracer
  (which bypasses the drivers), fault controller, reliability layer or
  invariant monitor is attached, ``can_eject`` is
  replaced, or ``packet_priority`` is not a packet-state policy
  (:func:`repro.noc.network.packet_state_priority`): every landing
  (``ArrivalQueue._land``, flits already in the ring included, so
  ``on_link_flit`` and ``on_hop`` see every flit), every router tick and
  every NI visit (the Python NI runs on the same arrays).  On the turn
  to Python every router's ``_bound`` list is rebuilt from ``pkt_id``;
- a router whose type is neither exactly :class:`Router` nor exactly
  ``DiscoRouter`` is ticked in Python (its ``_bound`` rebuilt first)
  after the pending native run is flushed.

If no compiler is found or the library fails to build or load, the
network keeps the Python path and says why, once per process: in a log
line and in ``kernel.annotations["noc.sweep"]`` (``kernel.describe()``).

The shared library is cached under ``$XDG_CACHE_HOME/repro-native/``
(``~/.cache/repro-native/`` by default; the system temp directory if
that is not writable), keyed by the source's sha256, the compiler and
the flags, and published atomically, so only the first process on a
host compiles.  It does not follow ``REPRO_CACHE_DIR``: that directory
holds simulation results and is often fresh per run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.noc.config import FlowControl
from repro.noc.fabric_state import NO_CLASS
from repro.noc.flit import PacketType
from repro.noc.router import VC_VA, Router, _base_can_eject
from repro.noc.topology import PORT_LOCAL
from repro.settings import settings
from repro.sim.kernel import _reg_order
from repro.telemetry.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

SOURCE = Path(__file__).with_name("_sweep.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
#: Must equal ``SWEEP_ABI`` in ``_sweep.c``.
ABI = 4
#: ``MAX_ROUTER_VCS`` in ``_sweep.c``; VC and port masks are 64-bit.
MAX_ROUTER_VCS = 512
MAX_MASK_BITS = 64

# Event codes, counter slots and the deferred re-arm (``_sweep.c``).
EV_ROUTE = 1
EV_TAIL = 8
EV_EJECT = 16
EV_ABORT = 32
EV_CANDIDATE = 64
(C_TICKED, C_SENDS, C_LINK_FLITS, C_VA_GRANTS, C_SA_LOSSES, C_ERR_VID,
 C_DISCO_TICKED, C_YIELD, C_RC_START, C_OPENED, C_ERR_ARG, C_BUSY,
 C_INJECTED, C_WOKEN, C_POPPED, C_REARM, C_LEN) = range(17)
A_NOW, A_START, A_N, A_RESUMED, A_SLOT, A_LEN = range(6)
REARM_DEFER = -1
ERR_TAIL_BUFFERED = -1
ERR_PACKET_TOO_BIG = -2
ERR_NO_NEIGHBOR = -3
ERR_ROUTER_TOO_BIG = -4
ERR_VC_COLLISION = -5
ERR_RING_OVERFLOW = -6
ERR_RING_CONFLICT = -7

_LOG = get_logger("noc.native")

#: ``(library, note)`` of the first load attempt in this process: the
#: library and its path, or ``None`` and the reason it is unavailable.
_LOADED: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def find_compiler() -> Optional[str]:
    return shutil.which("gcc") or shutil.which("cc")


def cache_dirs() -> List[Path]:
    """Where the built library may live, in order of preference."""
    base = settings().xdg_cache_home or Path.home() / ".cache"
    return [
        base / "repro-native",
        Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}",
    ]


def _cache_key(source: bytes, compiler: str) -> str:
    real = os.path.realpath(compiler)
    stat = os.stat(real)
    token = "\0".join(
        (real, str(stat.st_size), str(stat.st_mtime_ns), *CFLAGS, str(ABI))
    )
    return hashlib.sha256(source + token.encode()).hexdigest()[:24]


def _build(compiler: str, target: Path) -> None:
    """Compile into a temp file beside ``target`` and publish atomically."""
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise RuntimeError(
                f"{compiler} failed on {SOURCE.name} "
                f"(exit {proc.returncode}): {detail}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> Tuple[Optional[ctypes.CDLL], str]:
    compiler = find_compiler()
    if compiler is None:
        return None, "no C compiler (gcc or cc) on PATH"
    try:
        name = f"sweep-{_cache_key(SOURCE.read_bytes(), compiler)}.so"
        errors = []
        for directory in cache_dirs():
            target = directory / name
            try:
                if not target.exists():
                    directory.mkdir(parents=True, exist_ok=True)
                    _build(compiler, target)
                break
            except OSError as exc:
                errors.append(f"{directory}: {exc}")
        else:
            return None, "no writable build cache (" + "; ".join(errors) + ")"
        lib = ctypes.CDLL(str(target))
        lib.repro_sweep_abi.argtypes = []
        lib.repro_sweep_abi.restype = ctypes.c_int64
        abi = lib.repro_sweep_abi()
        if abi != ABI:
            return None, f"{target} has ABI {abi}, expected {ABI}"
        # Every entry takes (descriptor, call arguments): two pointers.
        for entry in (lib.repro_sweep, lib.repro_land, lib.repro_inject):
            entry.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
            entry.restype = ctypes.c_int64
    except (OSError, RuntimeError, AttributeError) as exc:
        return None, f"cannot build or load {SOURCE.name}: {exc}"
    return lib, str(target)


def load() -> Tuple[Optional[ctypes.CDLL], str]:
    """The native library (built on first use) and its path, or ``None``
    and the reason it is unavailable (logged once per process)."""
    global _LOADED
    if _LOADED is None:
        _LOADED = _load()
        if _LOADED[0] is None:
            _LOG.warning(
                "native router sweep unavailable, using the Python sweep: %s",
                _LOADED[1],
            )
    return _LOADED


def _addr(buffer: array) -> int:
    return buffer.buffer_info()[0]


def install(network: "Network", enabled: bool = True) -> Optional["NativeSweep"]:
    """Install the native sweep on ``network``'s kernel when it can run;
    record the outcome in ``kernel.annotations["noc.sweep"]``."""
    kernel = network.kernel
    notes = kernel.annotations
    if not kernel.event_driven:
        notes["noc.sweep"] = "python (tick kernel: the oracle path)"
        return None
    if not enabled:
        notes["noc.sweep"] = "python (native sweep disabled by the caller)"
        return None
    fs = network.fabric
    max_radix = max(network.topology.radix(n) for n in range(fs.n_nodes))
    if (
        fs.vcs_per_port > MAX_MASK_BITS
        or max_radix > MAX_MASK_BITS
        or max_radix * fs.vcs_per_port > MAX_ROUTER_VCS
    ):
        notes["noc.sweep"] = (
            f"python (routers of radix {max_radix} x {fs.vcs_per_port} VCs "
            "exceed the native sweep's limits)"
        )
        return None
    lib, note = load()
    if lib is None:
        notes["noc.sweep"] = f"python (native sweep unavailable: {note})"
        return None
    driver = NativeSweep(network, lib, f"native ({note})")
    # Per-component timing books each driven phase under its component's
    # own label, so profiles read the same on either path.
    kernel.set_phase_driver("net.routers", driver, label="Router")
    kernel.set_phase_driver("net.nis", driver.inject, label="NetworkInterface")
    return driver


class NativeSweep:
    """``net.routers`` phase driver running plain and DISCO routers
    through C, the native landing of the arrival ring and (as the
    ``net.nis`` driver :meth:`inject`) the native NI visit."""

    def __init__(self, network: "Network", lib, note: str):
        self.network = network
        self._sweep = lib.repro_sweep
        self._land = lib.repro_land
        self._inject = lib.repro_inject
        self._note = note
        network.kernel.annotations["noc.sweep"] = note
        fs = network.fabric
        config = network.config
        topology = network.topology
        n_nodes = fs.n_nodes
        radix = [topology.radix(node) for node in range(n_nodes)]
        down_vid = array("q")
        for node in range(n_nodes):
            for port in range(radix[node]):
                neighbor = (
                    None if port == PORT_LOCAL
                    else topology.neighbor[node].get(port)
                )
                down_vid.append(
                    -1 if neighbor is None else fs.vid(
                        neighbor, topology.neighbor_port(node, port), 0
                    )
                )
        # Allowed downstream VC indices per (vnet, class): unconstrained,
        # dateline class 0, dateline class 1 (Router._build_va_candidates),
        # for every vnet a packet can carry.  The unconstrained entry is
        # also the NI's local VC choice.
        vcs = fs.vcs_per_port
        va_mask = array("q")
        for vnet in range(max(config.vnets, *(t.vnet + 1 for t in PacketType))):
            for allowed in (
                config.vnet_vcs(vnet),
                config.escape_class_vcs(vnet, 0),
                config.escape_class_vcs(vnet, 1),
            ):
                va_mask.append(sum(1 << v for v in allowed if v < vcs))
        #: Static tables the descriptor points into (kept alive here).
        self._tables = (
            array("q", fs.vc_base), array("q", fs.port_base),
            array("q", radix), down_vid, va_mask,
        )
        #: Per-node scratch marks of ``repro_land`` (all zero between calls).
        self._land_mark = array("q", bytes(8 * n_nodes))
        #: Per-call buffers the descriptor points to: the visited routers
        #: (NIs), the busy ones, the event triples (at most one per VC per
        #: cycle: a VC is in one stage), the counters, the distinct nodes
        #: of a landing, and ``repro_inject``'s woken nodes, popped queues
        #: and re-arm pairs.
        self._nodes = array("q", bytes(8 * n_nodes))
        self._busy = array("q", bytes(8 * n_nodes))
        self._events = array("q", bytes(8 * 3 * fs.n_vcs))
        self._counters = array("q", bytes(8 * C_LEN))
        self._landed = array("q", bytes(8 * n_nodes))
        self._woken = array("q", bytes(8 * n_nodes))
        self._popped = array("q", bytes(8 * n_nodes * fs.vnets))
        self._rearm = array("q", bytes(16 * n_nodes))
        #: The call arguments (``A_*`` slots).
        self._call = array("q", bytes(8 * A_LEN))
        self._desc = array("q")
        self._bind()
        fs.on_grow.append(self._bind)
        self._desc_at = _addr(self._desc)
        self._call_at = _addr(self._call)
        #: The eligibility verdict (:meth:`reason`) and the cycle it is for.
        self._reason: Optional[str] = None
        self._reason_cycle = -1
        self._base_eject = _base_can_eject()
        # Import cycle guard: the DISCO layer builds on this package.
        from repro.core.disco_router import DiscoRouter

        #: Per node: swept in C (exactly Router or exactly DiscoRouter).
        #: Router types never change, so an all-native fabric skips the
        #: per-router split on every sweep.
        self._in_c = [type(r) in (Router, DiscoRouter) for r in network.routers]
        kernel = network.kernel
        #: Per node: the router's kernel handle, for batched wakes.
        self._router_handles = [
            kernel.handle(router) for router in network.routers
        ]
        # The C calls take the visited routers (NIs) as registration
        # indices, which the network makes equal to their nodes.
        for node, router in enumerate(network.routers):
            assert self._router_handles[node].order == node
            assert kernel.handle(network.nis[node]).order == node
        self._all_in_c = all(self._in_c)
        #: DISCO router ticks swept in C, and the post-work visits among
        #: them that returned to Python (deterministic work counters).
        self.disco_ticks = 0
        self.post_ticks = 0
        #: Link flits landed in C and through the Python path (while the
        #: sweep is not eligible) by the arrival queue.
        self.native_landings = 0
        self.python_landings = 0
        #: Flits NIs streamed into local VCs in C and in Python.
        self.native_injections = 0
        self.python_injections = 0

    def _bind(self) -> None:
        """(Re)write the descriptor: the addresses of every array C reads,
        then the scalars.  Runs again when the handle table grows."""
        network = self.network
        fs = network.fabric
        config = network.config
        queue = network.arrival_queue
        arrays = [
            fs.state, fs.flits_present, fs.flits_received, fs.flits_sent,
            fs.incoming, fs.reserved, fs.out_port, fs.out_vc_class, fs.out_vc,
            fs.wait_cycles, fs.credit_debt, fs.wedged_until, fs.eject_tokens,
            fs.pkt_id, fs.engine_vc, fs.engine_jobs, fs.engine_cap, fs.sa_rr,
            network.route_table, queue.ring, queue.pkt, queue.count,
            queue.due, self._land_mark, fs.ni_vid, fs.ni_pkt, fs.ni_sent,
            fs.ni_head, fs.ni_ready, fs.ni_deliver, *self._tables,
            fs.vc_node, self._nodes, self._busy, self._events,
            self._counters, self._landed, self._woken, self._popped,
            self._rearm, fs.pkt_size, fs.pkt_vnet, fs.pkt_dst, fs.pkt_prio,
            fs.pkt_cand, fs.pkt_hops,
        ]
        desc = array("q", [_addr(a) for a in arrays] + [
            fs.vcs_per_port,
            fs.depth,
            int(config.flow_control is FlowControl.STORE_AND_FORWARD),
            int(config.flow_control in (
                FlowControl.VIRTUAL_CUT_THROUGH, FlowControl.STORE_AND_FORWARD,
            )),
            max(8, fs.vcs_per_port),
            fs.n_nodes,
            queue.slots,
            queue.capacity,
            config.link_latency,
            fs.vnets,
        ])
        if self._desc:
            self._desc[:] = desc  # same length: the buffer stays put
        else:
            self._desc = desc

    # -- eligibility ---------------------------------------------------------
    def python_reason(self) -> Optional[str]:
        """Why the dataplane must run in Python (``None``: it may run
        native), evaluated now."""
        network = self.network
        if network.tracer is not None:
            return "tracer attached"
        if network.kernel.drivers_bypassed:
            # A kernel tracer: the kernel ticks every router and NI
            # itself, so the landing must be Python's too.
            return "kernel tracer attached"
        if network.faults is not None:
            return "faults attached"
        if network.reliability is not None:
            return "reliability attached"
        if network.monitor is not None:
            return "monitor attached"
        if getattr(network.can_eject, "__func__", None) is not self._base_eject:
            return "can_eject replaced"
        if not getattr(network.fabric.priority, "packet_state_priority", False):
            return "packet_priority is not a packet-state policy"
        return None

    def reason(self, cycle: int) -> Optional[str]:
        """:meth:`python_reason`, decided once per kernel cycle (first at
        the network's frame start) and shared by the landing, the router
        sweep and the NI visit.  On a turn to Python the routers'
        ``_bound`` lists and the packets' hop counts catch up with the
        arrays."""
        if cycle == self._reason_cycle:
            return self._reason
        self._reason_cycle = cycle
        reason = self.python_reason()
        if reason != self._reason:
            if self._reason is None:
                self.network.fabric.sync_hops()
                for router in self.network.routers:
                    router._rebind()
            self._reason = reason
            self.network.kernel.annotations["noc.sweep"] = self._note + (
                "" if reason is None
                else f"; sweeps run in Python while {reason}"
            )
        return reason

    # -- the sweep -----------------------------------------------------------
    def __call__(self, cycle: int, regs: List) -> Optional[Tuple[int, int, List]]:
        if self.reason(cycle) is not None:
            return None  # the kernel's own sweep: the Python path
        busy: List = []
        if self._all_in_c:
            ticked = self._run_native(cycle, regs, busy)
            return ticked, len(regs) - ticked, busy
        ticked = 0
        run: List = []
        in_c = self._in_c
        for reg in regs:
            router = reg.component
            if in_c[router.node]:
                run.append(reg)
                continue
            if run:
                ticked += self._run_native(cycle, run, busy)
                run = []
            if router.has_work():
                router._rebind()
                self.network.fabric.sync_hops(router._vid_lo, router._vid_hi)
                router.tick(cycle)
                ticked += 1
                if router.has_work():
                    busy.append(reg)
        if run:
            ticked += self._run_native(cycle, run, busy)
        return ticked, len(regs) - ticked, busy

    def _run_native(self, cycle: int, run: List, busy: List) -> int:
        """Sweep ``run`` in C, stopping for DISCO post-work as the C side
        asks; returns the number of routers ticked."""
        n = len(run)
        # A router's (an NI's) registration index in its phase is its node.
        self._nodes[:n] = array("q", map(_reg_order, run))
        call = self._call
        call[A_NOW] = cycle
        call[A_N] = n
        counters = self._counters
        start = ticked = 0
        while True:
            call[A_START] = start
            count = self._sweep(self._desc_at, self._call_at)
            if count < 0:
                self._raise(count)
            if counters[C_OPENED]:
                network = self.network
                network.kernel.wake(
                    network.arrival_queue, cycle + network.config.link_latency
                )
            ticked += counters[C_TICKED]
            self._book()
            n_busy = counters[C_BUSY]
            if n_busy:
                busy.extend(map(run.__getitem__, self._busy[:n_busy]))
            stop = counters[C_YIELD]
            if stop < 0:
                if count:
                    self._replay(count)
                return ticked
            # DISCO post-work for run[stop]: its SA events (candidates
            # last), the arbitrator, its RC, the rest of post_tick.
            split = counters[C_RC_START]
            candidates = self._replay(split)
            events = self._events
            views = self.network.fabric.views
            routed = [views[events[j]] for j in range(3 * split + 1, 3 * count, 3)]
            reg = run[stop]
            router = reg.component
            # The engine reads hop counts of the packets it completes.
            self.network.fabric.sync_hops(router._vid_lo, router._vid_hi)
            router.post_tick(candidates, routed)
            self.post_ticks += 1
            if router.has_work():
                busy.append(reg)
            start = stop + 1
            if start == n:
                return ticked

    def _book(self) -> None:
        """Add one C call's counters to the network stats."""
        counters = self._counters
        stats = self.network.stats
        sends = counters[C_SENDS]
        if sends:
            stats.buffer_reads += sends
            stats.crossbar_flits += sends
            stats.sa_grants += sends
            stats.link_flits += counters[C_LINK_FLITS]
        stats.va_grants += counters[C_VA_GRANTS]
        stats.sa_losses += counters[C_SA_LOSSES]
        self.disco_ticks += counters[C_DISCO_TICKED]

    def _replay(self, count: int) -> List:
        """Apply the Python side effects of the first ``count`` events of
        the C call, in its order; returns the arbitrator candidates
        among them."""
        network = self.network
        fs = network.fabric
        views = fs.views
        vc_node = fs.vc_node
        events = self._events
        candidates = []
        for j in range(0, 3 * count, 3):
            code = events[j]
            i = events[j + 1]
            if code == EV_ROUTE:
                out_port, vc_class = network.route(
                    vc_node[i], fs.pkt_dst[fs.pkt_id[i]]
                )
                fs.out_port[i] = out_port
                fs.out_vc_class[i] = NO_CLASS if vc_class is None else vc_class
                fs.state[i] = VC_VA
                continue
            if code == EV_CANDIDATE:
                candidates.append(views[i])
                continue
            if code & EV_ABORT:
                vc = views[i]
                vc.router.engine.abort(vc)
            if code & EV_TAIL:
                fs.engine_job[i] = None
            if code & EV_EJECT:
                node = vc_node[i]
                network._eject_spent.append(node)
                network.stats.flits_ejected += 1
                if code & EV_TAIL:
                    network.nis[node].complete_ejection(
                        fs.retire(events[j + 2])
                    )
        return candidates

    def land(self, slot: int, count: int) -> None:
        """Land arrival-ring ``slot`` (``count`` flits) in C and wake each
        target router once."""
        network = self.network
        self._call[A_SLOT] = slot
        distinct = self._land(self._desc_at, self._call_at)
        if distinct < 0:
            self._raise(distinct)
        network.stats.buffer_writes += count
        self.native_landings += count
        network.kernel.wake_handles(
            map(self._router_handles.__getitem__, self._landed[:distinct])
        )

    def inject(self, cycle: int, regs: List) -> Optional[Tuple[int, int, List]]:
        """``net.nis`` phase driver: the visit of ``regs`` in C.  Stops at
        an NI whose pending delivery is due, delivers in Python and
        resumes; re-arms every NI itself, in visit order."""
        if self.reason(cycle) is not None:
            return None  # the kernel's own sweep: the Python NI
        network = self.network
        kernel = network.kernel
        nis = network.nis
        vnets = network.fabric.vnets
        n = len(regs)
        nodes = self._nodes
        nodes[:n] = array("q", map(_reg_order, regs))
        call = self._call
        call[A_NOW] = cycle
        call[A_N] = n
        call[A_START] = call[A_RESUMED] = 0
        counters = self._counters
        rearm = self._rearm
        ticked = 0
        while True:
            err = self._inject(self._desc_at, self._call_at)
            if err < 0:
                self._raise(err)
            ticked += counters[C_TICKED]
            injected = counters[C_INJECTED]
            if injected:
                network.stats.flits_injected += injected
                network.stats.buffer_writes += injected
                self.native_injections += injected
            if counters[C_WOKEN]:
                kernel.wake_handles(map(
                    self._router_handles.__getitem__,
                    self._woken[:counters[C_WOKEN]],
                ))
            for q in self._popped[:counters[C_POPPED]]:
                nis[q // vnets].refill(q % vnets)
            for j in range(0, 2 * counters[C_REARM], 2):
                reg = regs[rearm[j]]
                due = rearm[j + 1]
                if due == REARM_DEFER:
                    due = reg.component.next_wake(cycle)
                kernel.rearm(reg, due)
            stop = counters[C_YIELD]
            if stop < 0:
                return ticked, n - ticked, []
            nis[nodes[stop]]._deliver_pending()
            call[A_START] = stop
            call[A_RESUMED] = 1

    def _raise(self, code: int) -> None:
        """The Python path's error for a failed C call."""
        fs = self.network.fabric
        config = self.network.config
        queue = self.network.arrival_queue
        i = self._counters[C_ERR_VID]
        arg = self._counters[C_ERR_ARG]
        if code == ERR_TAIL_BUFFERED:
            raise RuntimeError(
                f"tail sent with {fs.flits_present[i]} flits still buffered"
            )
        if code == ERR_PACKET_TOO_BIG:
            raise RuntimeError(
                f"{config.flow_control.value} needs vc_depth >= packet "
                f"size ({fs.pkt_size[fs.pkt_id[i]]} flits > {config.vc_depth})"
            )
        if code == ERR_NO_NEIGHBOR:
            raise RuntimeError(
                f"route at router {fs.vc_node[i]} leaves the fabric "
                f"(output port {fs.out_port[i]})"
            )
        if code == ERR_ROUTER_TOO_BIG:
            raise RuntimeError(
                f"router {i} has {arg} VCs; the native sweep handles at "
                f"most {MAX_ROUTER_VCS}"
            )
        if code == ERR_VC_COLLISION:
            raise RuntimeError(
                f"VC collision at router {fs.vc_node[i]} "
                f"port {fs.vc_port[i]} vc {fs.vc_index[i]}"
            )
        if code == ERR_RING_OVERFLOW:
            raise RuntimeError(queue.overflow_message(i, arg))
        if code == ERR_RING_CONFLICT:
            raise RuntimeError(queue.conflict_message(i, arg))
        raise RuntimeError(f"native router sweep failed with code {code}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NativeSweep(python_reason={self._reason!r})"

