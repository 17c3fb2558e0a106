"""The native router sweep: the plain and DISCO routers' pipeline in C.

``_sweep.c`` (plain C99, no Python headers) runs switch allocation,
switch traversal and VC allocation of every :class:`Router` and
:class:`~repro.core.disco_router.DiscoRouter` over the fabric's
struct-of-arrays plane (:mod:`repro.noc.fabric_state`).  This module
compiles it once with the local C compiler, loads it with :mod:`ctypes`
and installs :class:`NativeSweep` as the event kernel's ``net.routers``
phase driver.

Split of the work, per cycle:

- **C**, one call per run of consecutive natively swept routers, in
  node order: partition each router's VCs by stage; SA with the engine
  lock, wedge, SAF, credit and eject-token checks, priority-then-round-
  robin arbitration on the ``pkt_prio`` mirror and one winner per input
  port; ST's array updates, tail release included; VA against the
  neighbour VC tables.  Each router is skipped or ticked exactly as the
  kernel's default visit would, so wake counts match the Python path.
- **Python**, replaying the ordered event buffer the call wrote: link
  arrivals, ejections (``_eject_spent``, ``complete_ejection``),
  unbinding released VCs, engine aborts, route computation through
  ``network.route`` (routing stays pluggable), and the stats deltas.
- **Post-work**: when a DISCO router's arbitrator or engine may act this
  cycle (the engine holds a job, or an SA/VA loser is a compression
  candidate the engine has room for), the call stops right after that
  router.  Python replays the events up to the router's RC events, runs
  ``DiscoRouter.post_tick`` (arbitrator, RC, arbitrator over VA-blocked
  VCs, engine cycle — the very code its Python ``tick`` ends with), reads
  ``has_work`` and resumes C at the next router.  Engine completions
  change ``flits_present``, which later routers read as credit in the
  same cycle, so the stop cannot be deferred.

Side effects keep their order because a sweep never acts on another
router's replayed effects within the same cycle: arrivals land a link
latency later, ejection deliveries only queue new packets at the NIs,
and route results are read by the next cycle's VA.

Eligibility is decided on every sweep, since faults, tracers and
priority policies are attached after the network is built:

- the whole sweep runs in Python while a tracer, fault controller,
  reliability layer or invariant monitor is attached, ``can_eject`` is
  replaced, or ``packet_priority`` is not a packet-state policy
  (:func:`repro.noc.network.packet_state_priority`);
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
ABI = 2
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
 C_DISCO_TICKED, C_YIELD, C_RC_START, C_LEN) = range(10)
ERR_TAIL_BUFFERED = -1
ERR_PACKET_TOO_BIG = -2
ERR_NO_NEIGHBOR = -3

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
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]
        sweep.restype = ctypes.c_int64
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
    driver = NativeSweep(network, lib.repro_sweep, f"native ({note})")
    kernel.set_phase_driver("net.routers", driver)
    return driver


class NativeSweep:
    """``net.routers`` phase driver running plain routers through C."""

    #: Per-component timing books the sweep under the plain router's own
    #: label, so profiles read the same on either path.
    label = "Router"

    def __init__(self, network: "Network", sweep, note: str):
        self.network = network
        self._sweep = sweep
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
        arrays = [
            fs.state, fs.flits_present, fs.flits_received, fs.flits_sent,
            fs.incoming, fs.reserved, fs.out_port, fs.out_vc_class, fs.out_vc,
            fs.wait_cycles, fs.credit_debt, fs.wedged_until, fs.eject_tokens,
            fs.pkt_size, fs.pkt_vnet, fs.pkt_prio, fs.pkt_cand, fs.engine_vc,
            fs.engine_jobs, fs.engine_cap, fs.sa_rr, *self._tables,
        ]
        self._desc = array("q", [_addr(a) for a in arrays] + [
            fs.vcs_per_port,
            fs.depth,
            int(config.flow_control is FlowControl.STORE_AND_FORWARD),
            int(whole),
            max(8, fs.vcs_per_port),
        ])
        self._nodes = array("q", bytes(8 * n_nodes))
        self._status = array("q", bytes(8 * n_nodes))
        # At most one event per VC per cycle (a VC is in one stage).
        self._events = array("q", bytes(8 * 3 * fs.n_vcs))
        self._counters = array("q", bytes(8 * C_LEN))
        self._args = (
            _addr(self._desc), _addr(self._nodes), _addr(self._status),
            _addr(self._events), _addr(self._counters),
        )
        self._reason: Optional[str] = None
        # Import cycle guard: the DISCO layer builds on this package.
        from repro.core.disco_router import DiscoRouter

        #: Per node: swept in C (exactly Router or exactly DiscoRouter).
        #: Router types never change, so an all-native fabric skips the
        #: per-router split on every sweep.
        self._in_c = [type(r) in (Router, DiscoRouter) for r in network.routers]
        self._all_in_c = all(self._in_c)
        #: DISCO router ticks swept in C, and the post-work visits among
        #: them that returned to Python (deterministic work counters).
        self.disco_ticks = 0
        self.post_ticks = 0

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
        if getattr(network.can_eject, "__func__", None) is not _base_can_eject():
            return "can_eject replaced"
        if not getattr(network.packet_priority, "packet_state_priority", False):
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
        desc, nodes_at, status_at, events_at, counters_at = self._args
        status = self._status
        counters = self._counters
        events = self._events
        views = self.network.fabric.views
        n = len(run)
        start = ticked = 0
        while True:
            count = self._sweep(
                desc, cycle, nodes_at + 8 * start, n - start,
                status_at + 8 * start, events_at, counters_at,
            )
            if count < 0:
                self._raise(count)
            ticked += counters[C_TICKED]
            self._book()
            stop = counters[C_YIELD]
            end = n if stop < 0 else start + stop
            for k in range(start, end):
                if status[k] & 2:
                    busy.append(run[k])
            if stop < 0:
                if count:
                    self._replay(cycle, count)
                return ticked
            # DISCO post-work for run[end]: its SA events (candidates
            # last), the arbitrator, its RC, the rest of post_tick.
            split = counters[C_RC_START]
            candidates = self._replay(cycle, split)
            routed = [views[events[j]] for j in range(3 * split + 1, 3 * count, 3)]
            reg = run[end]
            router = reg.component
            router.post_tick(candidates, routed)
            self.post_ticks += 1
            if router.has_work():
                busy.append(reg)
            start = end + 1
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
        due = cycle + network.config.link_latency
        arrivals = None
        candidates = []
        for j in range(0, 3 * count, 3):
            code = events[j]
            i = events[j + 1]
            packet = packets[i]
            if code == EV_ROUTE:
                out_port, vc_class = network.route(vc_node[i], packet.dst)
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
                    network.nis[node].complete_ejection(packet)
            else:
                if arrivals is None:
                    arrivals = network.arrival_queue.batch(due)
                arrivals.append(
                    (views[events[j + 2]], packet,
                     bool(code & EV_HEAD), bool(tail))
                )
            if tail:
                vc = views[i]
                vc.router._bound.remove(vc)
                packets[i] = None
                fs.engine_job[i] = None
        return candidates

    def _raise(self, code: int) -> None:
        """The Python path's error for a failed C call."""
        fs = self.network.fabric
        config = self.network.config
        i = self._counters[C_ERR_VID]
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
        raise RuntimeError(f"native router sweep failed with code {code}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NativeSweep(python_reason={self._reason!r})"
