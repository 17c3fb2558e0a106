"""The native router sweep: the plain and DISCO routers' pipeline in C.

``_sweep.c`` (plain C99, no Python headers) runs switch allocation,
switch traversal, VC allocation and route computation of every
:class:`Router` and :class:`~repro.core.disco_router.DiscoRouter` over
the fabric's struct-of-arrays plane (:mod:`repro.noc.fabric_state`),
and lands link flits.  This module compiles it once with the local C
compiler, loads it with :mod:`ctypes` and installs :class:`NativeSweep`
as the event kernel's ``net.routers`` phase driver; the arrival queue
calls :meth:`NativeSweep.land` in ``net.arrivals``.

Split of the work, per cycle:

- **C, routers**, one call per run of consecutive natively swept
  routers, in node order: partition each router's VCs by stage; SA with
  the engine lock, wedge, SAF, credit and eject-token checks,
  priority-then-round-robin arbitration on the ``pkt_prio`` mirror and
  one winner per input port; ST's array updates, tail release included;
  VA against the neighbour VC tables; RC from the network's route table
  (``Network.route_table``, one packed ``out_port << 2 | (vc_class + 1)``
  per (node, destination), read through the ``pkt_dst`` mirror).  Each
  router is skipped or ticked exactly as the kernel's default visit
  would, so wake counts match the Python path.
- **C, the arrival ring**: a link send appends ``target vid << 2 |
  head | tail`` to slot ``(cycle + L) % (L + 1)`` of the
  :class:`~repro.noc.network.ArrivalQueue` ring (the very arrays the
  Python ``_send_flit`` writes through ``ArrivalQueue.schedule``).  A
  send that puts the first flit into its slot has the queue woken for
  ``cycle + L``, as ``schedule`` does.  At ``cycle + L``,
  ``repro_land`` does every flit's buffer write (a head resets its VC to
  routing and takes the ``pkt_*`` mirrors the ring stashed from the
  sending VC), checks for VC collisions and lists the distinct target
  routers in first-arrival order.
- **Python**, replaying the ordered event buffer the router call wrote:
  the packet of each head flit sent on a link (into the ring's head
  list), ejections (``_eject_spent``, ``complete_ejection``), unbinding
  of released VCs (tails), engine aborts, and the route-table misses
  (``network.route`` computes the decision and fills the entry, so
  routing stays pluggable); a body flit sent on a link and a route-table
  hit produce no event.  After a landing: binding each head's packet
  (``fs.packet``, ``_bind_vc``, ``hops_traversed``), ``buffer_writes``
  and one wake per distinct target router.
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
  cycle, so the stop cannot be deferred.

Side effects keep their order because a sweep never acts on another
router's effects within the same cycle: arrivals land a link latency
later, ejection deliveries only queue new packets at the NIs, and route
results are read by the next cycle's VA.

Eligibility is decided on every sweep, since faults, tracers and
priority policies are attached after the network is built:

- the whole sweep runs in Python while a tracer, fault controller,
  reliability layer or invariant monitor is attached, ``can_eject`` is
  replaced, or ``packet_priority`` is not a packet-state policy
  (:func:`repro.noc.network.packet_state_priority`); so does every
  landing (``ArrivalQueue._land``), flits already in the ring included,
  so ``on_link_flit`` and ``on_hop`` see every flit;
- a router whose type is neither exactly :class:`Router` nor exactly
  ``DiscoRouter`` is ticked in Python after the pending native run is
  flushed.

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
from repro.telemetry.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

SOURCE = Path(__file__).with_name("_sweep.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
#: Must equal ``SWEEP_ABI`` in ``_sweep.c``.
ABI = 3
#: ``MAX_ROUTER_VCS`` in ``_sweep.c``; VC and port masks are 64-bit.
MAX_ROUTER_VCS = 512
MAX_MASK_BITS = 64

# Event codes and counter slots (``_sweep.c``).
EV_ROUTE = 1
EV_HEAD = 4
EV_TAIL = 8
EV_EJECT = 16
EV_ABORT = 32
EV_CANDIDATE = 64
(C_TICKED, C_SENDS, C_LINK_FLITS, C_VA_GRANTS, C_SA_LOSSES, C_ERR_VID,
 C_DISCO_TICKED, C_YIELD, C_RC_START, C_OPENED, C_ERR_ARG, C_BUSY,
 C_LEN) = range(13)
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
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [
        Path(base) / "repro-native",
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
        sweep = lib.repro_sweep
        sweep.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]
        sweep.restype = ctypes.c_int64
        land = lib.repro_land
        land.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
        ]
        land.restype = ctypes.c_int64
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
    kernel.set_phase_driver("net.routers", driver)
    return driver


class NativeSweep:
    """``net.routers`` phase driver running plain and DISCO routers
    through C, and the native landing of the arrival ring."""

    #: Per-component timing books the sweep under the plain router's own
    #: label, so profiles read the same on either path.
    label = "Router"

    def __init__(self, network: "Network", lib, note: str):
        self.network = network
        self._sweep = lib.repro_sweep
        self._land = lib.repro_land
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
        # for every vnet a packet can carry.
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
        whole = config.flow_control in (
            FlowControl.VIRTUAL_CUT_THROUGH, FlowControl.STORE_AND_FORWARD,
        )
        queue = network.arrival_queue
        #: Per-node scratch marks of ``repro_land`` (all zero between calls).
        self._land_mark = array("q", bytes(8 * n_nodes))
        arrays = [
            fs.state, fs.flits_present, fs.flits_received, fs.flits_sent,
            fs.incoming, fs.reserved, fs.out_port, fs.out_vc_class, fs.out_vc,
            fs.wait_cycles, fs.credit_debt, fs.wedged_until, fs.eject_tokens,
            fs.pkt_size, fs.pkt_vnet, fs.pkt_prio, fs.pkt_cand, fs.engine_vc,
            fs.engine_jobs, fs.engine_cap, fs.sa_rr, fs.pkt_dst,
            network.route_table, queue.ring, queue.count, queue.due,
            queue.mirrors, self._land_mark, *self._tables, fs.vc_node,
        ]
        self._desc = array("q", [_addr(a) for a in arrays] + [
            fs.vcs_per_port,
            fs.depth,
            int(config.flow_control is FlowControl.STORE_AND_FORWARD),
            int(whole),
            max(8, fs.vcs_per_port),
            n_nodes,
            queue.slots,
            queue.capacity,
            config.link_latency,
        ])
        self._nodes = array("q", bytes(8 * n_nodes))
        self._busy = array("q", bytes(8 * n_nodes))
        #: The distinct target nodes of one landed slot (``repro_land``).
        self._landed = array("q", bytes(8 * n_nodes))
        # At most one event per VC per cycle (a VC is in one stage).
        self._events = array("q", bytes(8 * 3 * fs.n_vcs))
        self._counters = array("q", bytes(8 * C_LEN))
        self._args = (
            _addr(self._desc), _addr(self._nodes), _addr(self._busy),
            _addr(self._events), _addr(self._counters),
        )
        self._landed_at = _addr(self._landed)
        self._reason: Optional[str] = None
        self._base_eject = _base_can_eject()
        # Import cycle guard: the DISCO layer builds on this package.
        from repro.core.disco_router import DiscoRouter

        #: Per node: swept in C (exactly Router or exactly DiscoRouter).
        #: Router types never change, so an all-native fabric skips the
        #: per-router split on every sweep.
        self._in_c = [type(r) in (Router, DiscoRouter) for r in network.routers]
        #: Per node: the router's kernel handle, for batched wakes.
        self._router_handles = [
            network.kernel.handle(router) for router in network.routers
        ]
        self._all_in_c = all(self._in_c)
        #: DISCO router ticks swept in C, and the post-work visits among
        #: them that returned to Python (deterministic work counters).
        self.disco_ticks = 0
        self.post_ticks = 0
        #: Link flits landed in C and through the Python path (while the
        #: sweep is not eligible) by the arrival queue.
        self.native_landings = 0
        self.python_landings = 0

    # -- eligibility ---------------------------------------------------------
    def python_reason(self) -> Optional[str]:
        """Why this sweep must run in Python (``None``: it may run native)."""
        network = self.network
        if network.tracer is not None:
            return "tracer attached"
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

    # -- the sweep -----------------------------------------------------------
    def __call__(self, cycle: int, regs: List) -> Optional[Tuple[int, int, List]]:
        reason = self.python_reason()
        if reason != self._reason:
            self._reason = reason
            self.network.kernel.annotations["noc.sweep"] = self._note + (
                "" if reason is None
                else f"; sweeps run in Python while {reason}"
            )
        if reason is not None:
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
        nodes = self._nodes
        for k, reg in enumerate(run):
            nodes[k] = reg.component.node
        desc, nodes_at, busy_at, events_at, counters_at = self._args
        counters = self._counters
        n = len(run)
        start = ticked = 0
        while True:
            count = self._sweep(
                desc, cycle, nodes_at, start, n, busy_at, events_at,
                counters_at,
            )
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
                    self._replay(cycle, count)
                return ticked
            # DISCO post-work for run[stop]: its SA events (candidates
            # last), the arbitrator, its RC, the rest of post_tick.
            split = counters[C_RC_START]
            candidates = self._replay(cycle, split)
            events = self._events
            views = self.network.fabric.views
            routed = [views[events[j]] for j in range(3 * split + 1, 3 * count, 3)]
            reg = run[stop]
            router = reg.component
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

    def _replay(self, cycle: int, count: int) -> List:
        """Apply the Python side effects of the first ``count`` events of
        the C call, in its order; returns the arbitrator candidates
        among them."""
        network = self.network
        fs = network.fabric
        packets = fs.packet
        views = fs.views
        vc_node = fs.vc_node
        events = self._events
        heads = None
        candidates = []
        for j in range(0, 3 * count, 3):
            code = events[j]
            i = events[j + 1]
            if code == EV_ROUTE:
                out_port, vc_class = network.route(vc_node[i], fs.pkt_dst[i])
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
            tail = code & EV_TAIL
            if code & EV_EJECT:
                node = vc_node[i]
                network._eject_spent.append(node)
                network.stats.flits_ejected += 1
                if tail:
                    network.nis[node].complete_ejection(packets[i])
            elif code & EV_HEAD:
                if heads is None:
                    queue = network.arrival_queue
                    due = cycle + network.config.link_latency
                    heads = queue.heads[due % queue.slots]
                heads.append((events[j + 2], packets[i]))
            if tail:
                vc = views[i]
                vc.router._bound.remove(vc)
                packets[i] = None
                fs.engine_job[i] = None
        return candidates

    def land(self, slot: int, count: int) -> None:
        """Land arrival-ring ``slot`` (``count`` flits) in C; bind each
        head's packet and wake each target router once."""
        network = self.network
        desc, _nodes, _busy, _events, counters_at = self._args
        distinct = self._land(desc, slot, self._landed_at, counters_at)
        if distinct < 0:
            self._raise(distinct)
        network.stats.buffer_writes += count
        self.native_landings += count
        queue = network.arrival_queue
        heads = queue.heads[slot]
        if heads:
            queue.heads[slot] = []
            fs = network.fabric
            packets = fs.packet
            views = fs.views
            for vid, packet in heads:
                packets[vid] = packet
                vc = views[vid]
                vc.router._bind_vc(vc)
                packet.hops_traversed += 1
        network.kernel.wake_handles(
            map(self._router_handles.__getitem__, self._landed[:distinct])
        )

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
                f"size ({fs.pkt_size[i]} flits > {config.vc_depth})"
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
