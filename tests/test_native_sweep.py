"""The native router sweep (:mod:`repro.noc.native`) against the Python path.

The Python router pipeline is the oracle: every run here is made twice,
once with the plain and DISCO routers swept in C and once with
``native_sweep=False``, and the two must agree on every counter and on
``result_digest``.  Covered: the five golden digests, a bounded
hypothesis draw over topology × flow control × VC count × scheme ×
DISCO configuration, a hybrid DISCO/plain fabric, every fallback
trigger (including a missing compiler), cross-path checkpoint restores
(DISCO ones paused with an engine job in flight), the per-VC mirrors
and invariants the C side relies on, how rarely DISCO routers return to
Python, and the kernel's driver-phase instrumentation.

The hypothesis draws take their example budget from the loaded profile
(``tests/conftest.py``): a dozen by default, more under
``--hypothesis-profile native-differential``.

Tests that need the compiled library skip, naming the reason, when it
cannot be built here; the equality tests run either way.
"""

import logging
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp.config import SystemConfig
from repro.cmp.schemes import make_scheme
from repro.cmp.system import CmpSystem
from repro.core import DiscoConfig, make_disco_router_factory
from repro.core.arbitrator import candidate_code
from repro.core.disco_router import DiscoRouter
from repro.core.scheduling import disco_priority
from repro.experiments import checkpoint, runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec, result_digest
from repro.faults import FaultController, FaultPlan
from repro.noc import FlowControl, Network, NocConfig, native
from repro.noc.fabric_state import ENGINE_ABORTABLE, ENGINE_IDLE, ENGINE_LOCKED
from repro.noc.flit import Packet, PacketType
from repro.noc.network import RING_HEAD
from repro.noc.router import VC_IDLE, VC_ROUTING, Router
from repro.noc.traffic import SyntheticTraffic, TrafficConfig
from repro.telemetry.tracer import PacketTracer
from tests.test_golden_mesh import GOLDEN_DIGESTS

CYCLES = 600


def _native_available() -> bool:
    return native.load()[0] is not None


needs_native = pytest.mark.skipif(
    not _native_available(),
    reason=f"native sweep unavailable: {native.load()[1]}",
)


# -- helpers -----------------------------------------------------------------
def _system(spec, native_sweep, noc=None, disco=None):
    """``runner.simulate``'s construction, with an optional fabric and
    DISCO configuration."""
    from repro.workloads.trace import generate_traces

    config = spec.config() if noc is None else SystemConfig.scaled_fabric(noc)
    traces = generate_traces(
        spec.profile(), config.n_cores, spec.accesses_per_core,
        seed=spec.seed, line_size=config.line_size,
    )
    scheme = make_scheme(spec.scheme, algorithm=spec.algorithm, disco=disco)
    system = CmpSystem(
        config, scheme, traces,
        warmup_fraction=spec.warmup_fraction, native_sweep=native_sweep,
    )
    runner._train_if_needed(system, spec)
    return system


def _pair(spec, noc=None, disco=None):
    """(native result, Python result, native system) of one spec.  Both
    runs must also agree on the kernel's wake counters (which the result
    holds only with telemetry on) and end with an empty handle table."""
    fast = _system(spec, True, noc, disco)
    native_result = fast.run()
    slow = _system(spec, False, noc, disco)
    python_result = slow.run()
    assert fast.kernel.kernel_counters() == slow.kernel.kernel_counters()
    assert fast.network.fabric.live_handles() == 0
    assert slow.network.fabric.live_handles() == 0
    return native_result, python_result, fast


def _assert_same(a, b):
    assert a.counters_full == b.counters_full
    assert result_digest(a) == result_digest(b)


def _network_run(native_sweep, *, factory=None, faults=None, setup=None,
                 attach=None, network_cls=Network, rate=0.05, seed=11, **noc):
    """A synthetic-traffic run; returns (fingerprint, network).

    ``attach(network)`` runs once, after the first cycle past a third of
    the run that ends with link flits in flight and an NI stream half
    sent.  The run must drain to an empty handle table."""
    from repro.noc.flit import pid_watermark

    base = pid_watermark()
    network = network_cls(
        NocConfig(**noc), router_factory=factory, native_sweep=native_sweep
    )
    if faults is not None:
        network.attach_faults(FaultController(faults, raise_on_violation=False))
    if setup is not None:
        setup(network)
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=rate, seed=seed)
    )
    for _ in range(CYCLES):
        traffic.step()
        if (attach is not None and network.cycle >= CYCLES // 3
                and network.arrival_queue.pending()
                and _half_sent_streams(network)):
            attach(network)
            attach = None
    assert attach is None, (
        "no cycle ended with link flits in flight and a stream half sent"
    )
    network.run_until_quiescent()
    assert network.fabric.live_handles() == 0
    fingerprint = {
        "cycle": network.cycle,
        "network": network._network_counters(),
        "sa_losses": network.stats.sa_losses,
        "degraded": network.degraded.counters(),
        "recovered": network.recovered.counters(),
        "wakes": network.kernel.kernel_counters(),
        # Pids are process-global: rebase to the run's own watermark.
        "delivered": [
            (p.pid - base, p.src, p.dst, p.ptype.value, p.ejected_cycle,
             p.hops_traversed, p.compressed_at_hop, p.decompressed_at_hop)
            for p in traffic.delivered
        ],
    }
    return fingerprint, network


def _half_sent_streams(network):
    """NI streams whose head entered the local VC and whose tail has not."""
    fs = network.fabric
    return sum(1 for q, vid in enumerate(fs.ni_vid)
               if vid >= 0 and fs.ni_sent[q] > 0)


def _hybrid_factory():
    """DISCO routers on even nodes, plain routers on odd ones."""
    disco = make_disco_router_factory(DiscoConfig())

    def factory(node, config, network):
        if node % 2 == 0:
            return disco(node, config, network)
        return Router(node, config, network)

    return factory


# -- goldens -----------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(GOLDEN_DIGESTS))
def test_goldens_match_native_and_python(scheme):
    """Both sweeps hit the five golden digests (the tick-all kernel is
    pinned to the same digests by ``test_golden_mesh``)."""
    spec = RunSpec(scheme=scheme, workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    native_result, python_result, system = _pair(spec)
    assert result_digest(native_result) == GOLDEN_DIGESTS[scheme]
    assert result_digest(python_result) == GOLDEN_DIGESTS[scheme]
    if _native_available():
        assert system.network.native_sweep is not None
        note = system.kernel.annotations["noc.sweep"]
        assert note.startswith("native (") and "Python" not in note


# -- generated configurations ------------------------------------------------
@st.composite
def fabrics(draw):
    topology = draw(st.sampled_from(["mesh", "torus", "ring", "cmesh"]))
    flow = draw(st.sampled_from(list(FlowControl)))
    vcs = draw(st.integers(1, 3))
    if topology in ("torus", "ring"):
        vcs = max(vcs, 2)  # dateline escape VCs
    shape = {"mesh": (3, 2), "torus": (3, 2), "ring": (3, 2),
             "cmesh": (2, 1)}[topology]
    depth = 8 if flow is FlowControl.WORMHOLE else 9  # whole 64-byte lines
    # The arrival ring has link_latency + 1 slots, indexed by due cycle.
    latency = draw(st.sampled_from([1, 2, 3]))
    return NocConfig(width=shape[0], height=shape[1], topology=topology,
                     flow_control=flow, vcs_per_vnet=vcs, vc_depth=depth,
                     link_latency=latency)


@st.composite
def disco_configs(draw):
    """DISCO engine/arbitrator settings that change what the C side sees:
    lock vs abort, engine capacity, the order-sensitive adaptive EMA,
    streaming vs whole-packet jobs (with the drawn flow control)."""
    return DiscoConfig(
        non_blocking=draw(st.booleans()),
        engines_per_router=draw(st.integers(1, 2)),
        adaptive_thresholds=draw(st.booleans()),
        separate_compression=draw(st.booleans()),
    )


@given(
    noc=fabrics(),
    scheme=st.sampled_from(["ideal", "baseline", "cc", "cnc", "disco"]),
    disco=disco_configs(),
    workload=st.sampled_from(["blackscholes", "canneal"]),
    seed=st.integers(1, 10_000),
)
@settings(derandomize=True)
def test_generated_configs_agree(noc, scheme, disco, workload, seed):
    _check_generated(noc, scheme, disco, workload, seed)


@given(
    noc=fabrics(),
    disco=disco_configs(),
    workload=st.sampled_from(["blackscholes", "canneal"]),
    seed=st.integers(1, 10_000),
)
@settings(derandomize=True)
def test_generated_disco_configs_agree(noc, disco, workload, seed):
    """The DISCO slice of the draw above, so every budget covers it."""
    _check_generated(noc, "disco", disco, workload, seed)


def _check_generated(noc, scheme, disco, workload, seed):
    spec = RunSpec(scheme=scheme, workload=workload, accesses_per_core=40,
                   seed=seed)
    native_result, python_result, system = _pair(
        spec, noc, disco if scheme == "disco" else None
    )
    _assert_same(native_result, python_result)
    if scheme == "disco" and system.network.native_sweep is not None:
        assert system.network.native_sweep.disco_ticks > 0


@pytest.mark.parametrize("topology,vcs", [("mesh", 1), ("torus", 2), ("ring", 3)])
def test_hybrid_disco_fabric_agrees(topology, vcs):
    """DISCO routers return to Python for post-work between plain ones;
    the order of side effects (and so every counter) is unchanged."""
    kwargs = dict(factory=_hybrid_factory(), topology=topology,
                  vcs_per_vnet=vcs, rate=0.08)
    fast, network = _network_run(True, **kwargs)
    slow, _ = _network_run(False, **kwargs)
    assert fast == slow
    assert fast["network"]["router_compressions"] > 0  # DISCO really ran


def _count_python_visits(monkeypatch):
    """Count Python ``tick`` calls of either router type and DISCO
    ``post_tick`` calls."""
    visits = {"plain": 0, "disco": 0, "post_tick": 0}
    for cls, key, name in ((Router, "plain", "tick"),
                           (DiscoRouter, "disco", "tick"),
                           (DiscoRouter, "post_tick", "post_tick")):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _key=key):
            visits[_key] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return visits


@needs_native
def test_hybrid_fabric_ticks_only_disco_routers_in_python(monkeypatch):
    """Plain and DISCO routers are both swept in C; Python only sees the
    DISCO post-work visits, a small share of the DISCO router ticks."""
    visits = _count_python_visits(monkeypatch)
    _fp, network = _network_run(True, factory=_hybrid_factory(), rate=0.08)
    sweep = network.native_sweep
    assert visits["plain"] == visits["disco"] == 0
    assert visits["post_tick"] == sweep.post_ticks > 0
    assert sweep.post_ticks < sweep.disco_ticks


# -- fallback triggers -------------------------------------------------------
class TestHookForcedFallback:
    """Each trigger puts the whole sweep on the Python path, names itself
    in ``kernel.describe()`` and leaves every counter unchanged."""

    def _check(self, reason, **kwargs):
        fast, network = _network_run(True, **kwargs)
        slow, _ = _network_run(False, **kwargs)
        assert fast == slow
        if _native_available():
            assert f"sweeps run in Python while {reason}" in (
                network.kernel.describe()
            )
        return fast

    def test_fault_controller(self):
        plan = FaultPlan(seed=5, drop_rate=0.01, wedge_rate=0.0005)
        fast = self._check("faults attached", faults=plan)
        assert fast["degraded"]["packets_dropped"] > 0  # faults really fired

    def test_packet_tracer(self):
        self._check("tracer attached", trace_packets=True,
                    trace_sample_interval=1)

    def test_tracer_event_streams_are_identical(self):
        def events(native_sweep):
            from repro.noc.flit import pid_watermark

            base = pid_watermark()
            _fp, network = _network_run(
                native_sweep, trace_packets=True, trace_sample_interval=1
            )
            return [(e.cycle, e.kind, e.pid - base, e.node, e.info)
                    for e in network.tracer.events]

        assert events(True) == events(False)

    def test_retransmission_layer(self):
        self._check("reliability attached", retransmission=True)

    def test_invariant_monitor(self):
        self._check("monitor attached", invariant_interval=50)

    def test_overridden_eject_policy(self):
        class ThrottledNetwork(Network):
            def can_eject(self, node):
                # Even nodes only eject on even cycles (a real policy
                # change, but starvation-free).
                if node % 2 == 0 and self.cycle % 2:
                    return False
                return super().can_eject(node)

        self._check("can_eject replaced", network_cls=ThrottledNetwork)

    def test_non_constant_priority(self):
        """A policy not marked ``packet_state_priority`` may read anything
        (here the clock), so no fabric mirror can stand in for it."""
        def setup(network):
            network.packet_priority = lambda packet: (
                (packet.src + packet.dst + network.cycle) % 3
            )

        self._check("packet_priority is not a packet-state policy",
                    setup=setup)

    def test_packet_state_priority_is_swept_natively(self):
        """The §3.3-B policy on plain routers: arbitration in C follows the
        ``pkt_prio`` mirror, with every counter unchanged."""
        def setup(network):
            network.packet_priority = disco_priority

        fast, network = _network_run(True, setup=setup)
        assert fast == _network_run(False, setup=setup)[0]
        if _native_available():
            assert network.kernel.annotations["noc.sweep"].startswith("native (")

    def test_disco_routers_fall_back_per_router(self, monkeypatch):
        """An all-DISCO fabric is swept in C (exact-type check) and matches
        the Python path; its routers come back to Python only for
        post-work, never for a whole tick."""
        factory = make_disco_router_factory(DiscoConfig())
        slow, _ = _network_run(False, factory=factory)
        visits = _count_python_visits(monkeypatch)
        fast, network = _network_run(True, factory=factory)
        assert fast == slow
        if _native_available():
            assert network.kernel.annotations["noc.sweep"].startswith("native (")
            assert visits["disco"] == 0
            assert visits["post_tick"] == network.native_sweep.post_ticks > 0

    def test_disco_subclass_ticks_in_python(self):
        """A router type that is not exactly ``DiscoRouter`` may change any
        stage, so it is ticked in Python between native runs."""
        class SubclassedDisco(DiscoRouter):
            pass

        disco = DiscoConfig()

        def factory(node, config, network):
            from repro.compression.registry import get_algorithm

            return SubclassedDisco(node, config, network, disco,
                                get_algorithm(disco.algorithm))

        fast, network = _network_run(True, factory=factory)
        assert fast == _network_run(False, factory=factory)[0]
        if _native_available():
            assert network.native_sweep.disco_ticks == 0


class TestUnavailable:
    """No compiler, or a source that does not build: the Python path runs,
    the reason is named once (log + ``kernel.describe()``) and the results
    are unchanged."""

    @pytest.fixture
    def captured(self):
        records = []

        class Collect(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = Collect()
        logging.getLogger("repro.noc.native").addHandler(handler)
        yield records
        logging.getLogger("repro.noc.native").removeHandler(handler)

    def test_missing_compiler(self, monkeypatch, captured):
        fast, _ = _network_run(True)
        monkeypatch.setattr(native, "_LOADED", None)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        slow, network = _network_run(True)
        again, _ = _network_run(True)
        assert slow == fast == again
        assert network.native_sweep is None
        reason = "no C compiler (gcc or cc) on PATH"
        assert f"noc.sweep: python (native sweep unavailable: {reason})" in (
            network.kernel.describe()
        )
        assert [m for m in captured if reason in m] == [
            f"native router sweep unavailable, using the Python sweep: {reason}"
        ]

    def test_missing_compiler_keeps_the_goldens(self, monkeypatch):
        monkeypatch.setattr(native, "_LOADED", None)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        spec = RunSpec(scheme="cc", workload="blackscholes",
                       accesses_per_core=QUICK_ACCESSES)
        assert result_digest(runner.simulate(spec)) == GOLDEN_DIGESTS["cc"]

    def test_build_failure_names_the_compiler_error(
        self, monkeypatch, tmp_path, captured
    ):
        if native.find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        broken = tmp_path / "_sweep.c"
        broken.write_text("this is not C;\n")
        monkeypatch.setattr(native, "_LOADED", None)
        monkeypatch.setattr(native, "SOURCE", broken)
        monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path / "cache"])
        _fp, network = _network_run(True)
        note = network.kernel.annotations["noc.sweep"]
        assert note.startswith("python (native sweep unavailable: cannot build")
        assert "_sweep.c" in note and "exit" in note
        assert list((tmp_path / "cache").iterdir()) == []  # no partial file
        assert len(captured) == 1

    def test_routers_beyond_the_c_limits(self, monkeypatch):
        monkeypatch.setattr(native, "MAX_ROUTER_VCS", 4)
        fast, network = _network_run(True)
        assert fast == _network_run(False)[0]
        assert network.native_sweep is None
        assert "exceed the native sweep's limits" in (
            network.kernel.annotations["noc.sweep"]
        )

    def test_disabled_by_the_caller(self):
        _fp, network = _network_run(False)
        assert network.native_sweep is None
        assert network.kernel.annotations["noc.sweep"] == (
            "python (native sweep disabled by the caller)"
        )

    def test_tick_kernel_never_installs_the_driver(self):
        from repro.sim import SimKernel

        network = Network(NocConfig(), kernel=SimKernel(mode="tick"))
        assert network.native_sweep is None
        assert "tick kernel" in network.kernel.annotations["noc.sweep"]


class TestBuildCache:
    @needs_native
    def test_built_once_then_reused(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path])
        monkeypatch.setattr(native, "_LOADED", None)
        lib, path = native.load()
        assert lib is not None and path.startswith(str(tmp_path))
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1 and built[0].endswith(".so")

        def no_compile(*_args):
            raise AssertionError("a cached library must not be rebuilt")

        monkeypatch.setattr(native, "_LOADED", None)
        monkeypatch.setattr(native, "_build", no_compile)
        assert native.load()[1] == path

    def test_cache_ignores_the_result_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert native.cache_dirs()[0] == tmp_path / "xdg" / "repro-native"


# -- checkpoints across paths ------------------------------------------------
def _cross_paths(spec, first, second, pause_at, at_pause=None):
    """Pause on one path, restore on the other, finish: the snapshot bytes
    at the pause must be identical on both paths (and ``at_pause(system)``
    must hold there on both); returns the digest of the restored run."""
    from repro.noc import flit

    snapshots = {}
    start = flit.pid_watermark()
    for path in (first, second):
        # Pids are process-global: both runs allocate from one start so
        # the pickled packets compare byte for byte.
        flit._packet_ids.value = start
        system = _system(spec, path)
        assert system.run(pause_at=pause_at) is None
        if at_pause is not None:
            assert at_pause(system)
        snapshots[path] = pickle.dumps(system.state_dict(),
                                       pickle.HIGHEST_PROTOCOL)
    assert snapshots[first] == snapshots[second]
    fresh = checkpoint.build_system(spec, native_sweep=second)
    fresh.load_state(pickle.loads(snapshots[first]))
    return result_digest(fresh.run())


@pytest.mark.parametrize("scheme", ["baseline", "cnc"])
@pytest.mark.parametrize("first,second", [(True, False), (False, True)])
def test_checkpoint_crosses_paths(scheme, first, second):
    """The finished result equals a run that never switched paths."""
    spec = RunSpec(scheme=scheme, workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    assert _cross_paths(spec, first, second, 1500) == GOLDEN_DIGESTS[scheme]


def _first_cycle_in_flight(spec, after):
    """The first cycle past ``after`` that ends with both a head flit
    (its packet held by the ring) and a body or tail flit (its packet
    bound to the target VC) in the arrival ring."""
    system = _system(spec, False)
    while system.run(pause_at=system.cycle + 1) is None:
        if system.cycle <= after:
            continue
        flits = list(system.network.arrival_queue._flits())
        if any(flags & RING_HEAD for *_, flags in flits) and any(
            not flags & RING_HEAD for *_, flags in flits
        ):
            return system.cycle
    raise AssertionError("the run finished without such a cycle")


@pytest.mark.parametrize("scheme", ["baseline", "disco"])
@pytest.mark.parametrize("first,second", [(True, False), (False, True)])
def test_checkpoint_crosses_paths_in_flight(scheme, first, second):
    """A snapshot taken while head and body flits are in the arrival ring
    restores across paths to the golden digest."""
    spec = RunSpec(scheme=scheme, workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    pause_at = _first_cycle_in_flight(spec, 1000)
    assert _cross_paths(
        spec, first, second, pause_at,
        at_pause=lambda system: system.network.arrival_queue.pending() > 0,
    ) == GOLDEN_DIGESTS[scheme]


def _open_stream_and_delayed_head(system):
    """An NI stream is half sent and a queue head waits out its CNC
    compression (ready after the current cycle)."""
    fs = system.network.fabric
    return _half_sent_streams(system.network) and any(
        head >= 0 and fs.ni_ready[q] > system.cycle
        for q, head in enumerate(fs.ni_head)
    )


@pytest.mark.parametrize("first,second", [(True, False), (False, True)])
def test_checkpoint_crosses_paths_with_an_open_stream(first, second):
    """A CNC snapshot taken while an NI stream is half sent and a queue
    head is still being compressed restores across paths to the golden
    digest: the NI arrays round-trip through the version-1 NI layout."""
    spec = RunSpec(scheme="cnc", workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    system = _system(spec, False)
    while system.run(pause_at=system.cycle + 1) is None:
        if system.cycle > 1000 and _open_stream_and_delayed_head(system):
            break
    else:
        raise AssertionError("the run finished without such a cycle")
    assert _cross_paths(
        spec, first, second, system.cycle,
        at_pause=_open_stream_and_delayed_head,
    ) == GOLDEN_DIGESTS["cnc"]


def _first_cycle_with_job(spec, separate):
    """The first cycle that ends with a live engine job, streaming
    (``separate``) or whole-packet, somewhere in the fabric."""
    system = _system(spec, False)
    while system.run(pause_at=system.cycle + 1) is None:
        for router in system.network.routers:
            if any(job.valid and job.separate == separate
                   for job in router.engine.jobs):
                return system.cycle
    raise AssertionError("the run finished without such an engine job")


@pytest.mark.parametrize("separate", [True, False],
                         ids=["streaming", "whole-packet"])
@pytest.mark.parametrize("first,second", [(True, False), (False, True)])
def test_disco_checkpoint_crosses_paths_mid_job(separate, first, second):
    """A DISCO snapshot taken while an engine job is in flight is
    byte-identical on both paths; the engine mirrors the C side reads
    are rebuilt on restore, so the finished run hits the golden digest."""
    spec = RunSpec(scheme="disco", workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    pause_at = _first_cycle_with_job(spec, separate)
    assert _cross_paths(spec, first, second, pause_at) == (
        GOLDEN_DIGESTS["disco"]
    )


# -- invariants the C side relies on -----------------------------------------
def _engine_code(router, vc):
    job = vc.engine_job
    if job is None:
        return ENGINE_IDLE
    if job.committed or not router.disco.non_blocking:
        return ENGINE_LOCKED
    return ENGINE_ABORTABLE


def _assert_mirrors(network):
    """Every mirror the C side reads equals what the live objects say:
    a VC is bound (holds a live handle) exactly when it is not idle, and
    every live handle's mirrors (bound, in the ring or queued at an NI)
    match its packet.  Returns the number of bound VCs."""
    fs = network.fabric
    bound = 0
    for vid, handle in enumerate(fs.pkt_id):
        assert (fs.state[vid] == VC_IDLE) == (handle < 0), vid
        router = fs.views[vid].router
        if isinstance(router, DiscoRouter):
            assert fs.engine_vc[vid] == _engine_code(router, fs.views[vid]), vid
        else:
            assert fs.engine_vc[vid] == ENGINE_IDLE, vid
        if handle >= 0:
            assert fs.packets[handle] is not None, vid
            bound += 1
    live = 0
    for handle, packet in enumerate(fs.packets):
        if packet is None:
            continue
        live += 1
        assert fs.handle_of(packet) == handle
        assert fs.pkt_size[handle] == packet.size_flits
        assert fs.pkt_vnet[handle] == packet.ptype.vnet
        assert fs.pkt_dst[handle] == packet.dst
        assert fs.pkt_prio[handle] == network.packet_priority(packet)
        assert fs.pkt_cand[handle] == (
            0 if fs.candidate_filter is None else candidate_code(packet)
        )
    assert live == fs.live_handles()
    for router in network.routers:
        engine = getattr(router, "engine", None)
        jobs = 0 if engine is None else len(engine.jobs)
        cap = 0 if engine is None else router.disco.engines_per_router
        assert fs.engine_jobs[router.node] == jobs
        assert fs.engine_cap[router.node] == cap
    return bound


def test_idle_state_means_no_packet_and_mirrors_track_packets():
    """``state == VC_IDLE`` exactly when no packet is bound (the C side
    never sees packets), and every mirror (size, vnet, priority, engine
    candidate, engine lock, job count) matches the live objects, checked
    every cycle of a hybrid run under the §3.3-B policy, on both paths."""
    for native_sweep in (True, False):
        network = Network(NocConfig(vcs_per_vnet=2),
                          router_factory=_hybrid_factory(),
                          native_sweep=native_sweep)
        network.packet_priority = disco_priority
        traffic = SyntheticTraffic(
            network, TrafficConfig(injection_rate=0.08, seed=3)
        )
        bound_seen = 0
        for _ in range(400):
            traffic.step()
            bound_seen += _assert_mirrors(network)
        assert bound_seen > 0
        assert network.stats.compressions > 0  # engines completed jobs


def test_mirrors_are_rebuilt_on_restore():
    network = Network(NocConfig())
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=0.2, seed=5)
    )
    for _ in range(300):
        traffic.step()
    state = pickle.loads(pickle.dumps(network.state_dict()))
    fresh = Network(NocConfig())
    fresh.load_state(state)
    assert _assert_mirrors(fresh) > 0
    assert fresh.fabric.live_handles() == network.fabric.live_handles()
    assert [None if vc.packet is None else vc.packet.pid
            for r in fresh.routers for vc in r.all_vcs] == [
        None if vc.packet is None else vc.packet.pid
        for r in network.routers for vc in r.all_vcs
    ]
    assert fresh.fabric.sa_rr.tolist() == network.fabric.sa_rr.tolist()


def test_disco_mirrors_are_rebuilt_on_restore():
    """Engine links, job counts and packet mirrors of a DISCO fabric
    restore from the snapshot alone (none of them is checkpointed)."""
    def build():
        network = Network(NocConfig(), router_factory=_hybrid_factory())
        network.packet_priority = disco_priority
        return network

    network = build()
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=0.2, seed=5)
    )
    for _ in range(300):
        traffic.step()
        if any(getattr(r, "engine", None) and r.engine.jobs
               for r in network.routers):
            break
    assert any(getattr(r, "engine", None) and r.engine.jobs
               for r in network.routers)
    fresh = build()
    fresh.load_state(pickle.loads(pickle.dumps(network.state_dict())))
    assert _assert_mirrors(fresh) > 0
    for name in ("engine_vc", "engine_jobs"):
        assert getattr(fresh.fabric, name).tolist() == (
            getattr(network.fabric, name).tolist()
        ), name


# -- the arrival ring across an eligibility flip ------------------------------
def _attach_zero_faults(network):
    network.attach_faults(FaultController(FaultPlan(seed=3),
                                          raise_on_violation=False))


def _attach_tracer(network):
    network.tracer = PacketTracer(sample_interval=1)


@pytest.mark.parametrize("attach", [_attach_zero_faults, _attach_tracer],
                         ids=["faults", "tracer"])
def test_flits_in_flight_land_in_python_after_a_flip(attach, monkeypatch):
    """A fault controller or tracer attached while the ring holds flits
    and an NI stream is half sent sends every later landing, those flits
    included, and every later injected flit, the open stream's included,
    through the Python path (``on_link_flit`` once per landed flit,
    ``on_hop`` once per later head), and the run equals one that was on
    the Python path throughout."""
    hooked = []
    hops = []
    on_link_flit = FaultController.on_link_flit
    on_hop = PacketTracer.on_hop

    def spy(self, cycle, target_vc, packet, is_head):
        hooked.append(cycle)
        return on_link_flit(self, cycle, target_vc, packet, is_head)

    def hop_spy(self, cycle, packet, *args):
        hops.append((cycle, packet.pid))
        return on_hop(self, cycle, packet, *args)

    monkeypatch.setattr(FaultController, "on_link_flit", spy)
    monkeypatch.setattr(PacketTracer, "on_hop", hop_spy)
    at_flip = {}

    def flip(network):
        sweep = network.native_sweep
        at_flip["pending"] = network.arrival_queue.pending()
        at_flip["streams"] = _half_sent_streams(network)
        if sweep is not None:
            at_flip["native"] = sweep.native_landings
            at_flip["python"] = sweep.python_landings
            at_flip["injected"] = sweep.native_injections
            at_flip["python_injected"] = sweep.python_injections
        attach(network)

    fast, network = _network_run(True, attach=flip)
    hooked_fast, hops_fast = len(hooked), len(hops)
    slow, _ = _network_run(False, attach=attach)
    assert fast == slow
    if attach is _attach_tracer:
        assert hops_fast == len(hops) - hops_fast > 0
    sweep = network.native_sweep
    if sweep is None:
        return
    assert at_flip["pending"] > 0 and at_flip["streams"] > 0
    assert at_flip["native"] > 0 and at_flip["python"] == 0
    assert at_flip["injected"] > 0 and at_flip["python_injected"] == 0
    assert sweep.native_landings == at_flip["native"]
    landed = network.stats.link_flits - at_flip["native"]
    assert sweep.python_landings == landed >= at_flip["pending"]
    assert sweep.native_injections == at_flip["injected"]
    assert sweep.python_injections == (
        network.stats.flits_injected - at_flip["injected"]
    ) > 0
    if attach is _attach_zero_faults:
        assert hooked_fast == landed


@needs_native
def test_eligibility_is_decided_once_per_cycle(monkeypatch):
    """The landing, the router sweep and the NI visit share one verdict
    per kernel cycle."""
    cycles = []
    python_reason = native.NativeSweep.python_reason

    def counted(self):
        cycles.append(self.network.cycle)
        return python_reason(self)

    monkeypatch.setattr(native.NativeSweep, "python_reason", counted)
    _fp, network = _network_run(True)
    assert len(cycles) == len(set(cycles)) > CYCLES // 2
    assert network.native_sweep.native_injections > 0


@needs_native
def test_a_tracer_attached_between_steps_takes_the_next_cycle_to_python(
    monkeypatch,
):
    """The cycle after a tracer is attached lands, sweeps the routers and
    visits the NIs in Python; none of its work reaches C."""
    from repro.noc.interface import NetworkInterface

    network = Network(NocConfig())
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=0.2, seed=5)
    )
    sweep = network.native_sweep
    queue = network.arrival_queue
    while not (queue.next_wake(network.cycle) == network.cycle + 1
               and _half_sent_streams(network)):
        traffic.step()
    due = queue.count[(network.cycle + 1) % queue.slots]
    visits = {"router": 0, "ni": 0}

    def count(cls, key):
        original = cls.tick

        def tick(self, *args):
            visits[key] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, "tick", tick)

    count(Router, "router")
    count(NetworkInterface, "ni")
    before = (sweep.native_landings, sweep.native_injections,
              sweep.python_landings, sweep.python_injections)
    network.tracer = PacketTracer(sample_interval=1)
    network.tick()
    assert (sweep.native_landings, sweep.native_injections) == before[:2]
    assert sweep.python_landings == before[2] + due
    assert sweep.python_injections > before[3]
    assert visits["router"] > 0 and visits["ni"] > 0
    assert "sweeps run in Python while tracer attached" in (
        network.kernel.annotations["noc.sweep"]
    )


@pytest.mark.parametrize("factory", [None, _hybrid_factory],
                         ids=["plain", "hybrid-disco"])
def test_a_kernel_tracer_takes_the_dataplane_to_python(factory):
    """A kernel tracer bypasses the phase drivers, so the routers and NIs
    tick in Python: the landing must too.  Attached while flits are in
    flight and a stream is half sent, then detached a hundred cycles
    later, it leaves the run (hop counts included) equal to one on the
    Python path throughout, and the native path takes over again."""
    traced = []
    at = {}

    def attach(network):
        start = network.cycle

        def tracer(cycle, phase, component):
            traced.append(phase)
            if cycle >= start + 100:
                network.kernel.set_tracer(None)
                sweep = network.native_sweep
                if sweep is not None:
                    at["detach"] = sweep.native_landings

        sweep = network.native_sweep
        if sweep is not None:
            at["attach"] = sweep.native_landings
        network.kernel.set_tracer(tracer)

    kwargs = dict(attach=attach, rate=0.08)
    if factory is not None:
        kwargs["factory"] = factory()
    fast, network = _network_run(True, **kwargs)
    fast_phases = set(traced)
    traced.clear()
    slow, _ = _network_run(False, **kwargs)
    assert fast == slow
    assert {"net.arrivals", "net.routers", "net.nis"} <= fast_phases
    sweep = network.native_sweep
    if sweep is None:
        return
    assert at["detach"] == at["attach"] > 0  # nothing landed in C traced
    assert sweep.python_landings > 0 and sweep.python_injections > 0
    assert sweep.native_landings > at["detach"]  # back in C afterwards


def test_priority_change_remirrors_packets_in_flight():
    """A new packet-state priority policy installed while response heads
    are in the ring reaches every live handle's ``pkt_prio``: every head
    the native path lands afterwards carries the new priority."""
    network = Network(NocConfig(), router_factory=_hybrid_factory())
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=0.2, seed=5)
    )
    queue = network.arrival_queue
    packets = network.fabric.packets
    while not any(flags & RING_HEAD
                  and packets[handle].ptype is PacketType.RESPONSE
                  for _due, _vid, handle, flags in queue._flits()):
        traffic.step()
    network.packet_priority = disco_priority  # demotes those responses
    for _ in range(50):
        traffic.step()
        _assert_mirrors(network)


# -- failures name their cause -------------------------------------------------
def _one_packet_network(native_sweep):
    network = Network(NocConfig(width=2, height=2), native_sweep=native_sweep)
    if native_sweep and network.native_sweep is None:
        pytest.skip(f"native sweep unavailable: {native.load()[1]}")
    network.set_delivery_handler(lambda node, packet: None)
    network.send(Packet(PacketType.RESPONSE, 0, 3, line=bytes(64)))
    return network


class TestFailuresNameTheirCause:
    """Each error code of the C side, forced through a fabricated fabric
    state, raises the Python path's message (or, with no Python
    counterpart, one naming the router)."""

    @needs_native
    def test_router_too_big(self):
        network = Network(NocConfig())
        ports = native.MAX_ROUTER_VCS + 1
        # Fabricated: router 5 claims more ports than the C side handles
        # (its table is the only place the C side reads a radix from).
        network.native_sweep._tables[2][5] = ports
        vcs = network.fabric.vcs_per_port
        with pytest.raises(RuntimeError) as info:
            network.tick()  # every router is primed for cycle 1
        assert str(info.value) == (
            f"router 5 has {ports * vcs} VCs; the native sweep handles at "
            f"most {native.MAX_ROUTER_VCS}"
        )

    @pytest.mark.parametrize("native_sweep", [True, False],
                             ids=["native", "python"])
    def test_vc_collision(self, native_sweep):
        network = _one_packet_network(native_sweep)
        vc = network.routers[3].all_vcs[-1]
        # Fabricated: the VC is bound when another head lands on it.
        vc.packet = Packet(PacketType.REQUEST, 1, 3)
        network.fabric.state[vc.vid] = VC_ROUTING
        network.schedule_arrival(1, vc, Packet(PacketType.REQUEST, 2, 3),
                                 is_head=True, is_tail=True)
        with pytest.raises(RuntimeError) as info:
            network.tick()
        assert str(info.value) == (
            f"VC collision at router 3 port {vc.port} vc {vc.vc_index}"
        )

    @pytest.mark.parametrize("native_sweep", [True, False],
                             ids=["native", "python"])
    @pytest.mark.parametrize("fault", ["overflow", "conflict"])
    def test_ring_slot(self, native_sweep, fault):
        """A full ring slot, or one holding flits due at another cycle,
        stops the first link send into it."""
        probe = _one_packet_network(native_sweep)
        while not probe.stats.link_flits:
            probe.tick()
        network = _one_packet_network(native_sweep)
        while network.cycle < probe.cycle - 1:
            network.tick()
        queue = network.arrival_queue
        due = probe.cycle + network.config.link_latency
        slot = due % queue.slots
        if fault == "overflow":
            queue.count[slot] = queue.capacity
            queue.due[slot] = due
            expected = queue.overflow_message(slot, due)
            assert f"slot {slot}" in expected
            assert f"capacity of {queue.capacity} flits" in expected
        else:
            queue.count[slot] = 1
            queue.due[slot] = due + queue.slots
            expected = queue.conflict_message(slot, due)
            assert (f"slot {slot} holds flits due at cycle "
                    f"{due + queue.slots}") in expected
        with pytest.raises(RuntimeError) as info:
            network.tick()
        assert str(info.value) == expected


# -- the DISCO post-work protocol ----------------------------------------------
@needs_native
def test_disco_post_work_is_rare():
    """On the fig5 ``disco`` smoke spec, under 10% of the DISCO router
    ticks return to Python for arbitrator/engine work (a count of the
    design's work, not of host time)."""
    spec = RunSpec(scheme="disco", workload="blackscholes",
                   accesses_per_core=400)
    system = _system(spec, True)
    system.run()
    sweep = system.network.native_sweep
    assert sweep.disco_ticks > 0
    assert 0 < sweep.post_ticks < 0.1 * sweep.disco_ticks


# -- kernel instrumentation --------------------------------------------------
@needs_native
def test_driver_phase_is_timed_per_component():
    """``enable_timing(per_component=True)`` books the driven phase under
    the driver's label — the plain router's class name, as the Python
    path books it — with the same tick count."""
    spec = RunSpec(scheme="baseline", workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    ticks = {}
    for native_sweep in (True, False):
        system = _system(spec, native_sweep)
        system.kernel.enable_timing(per_component=True)
        system.run()
        kernel = system.kernel
        router_keys = {k for k in kernel.component_ticks
                       if k[0] == "net.routers"}
        ticks[native_sweep] = sum(kernel.component_ticks[k]
                                  for k in router_keys)
        assert ticks[native_sweep] == kernel.phase_ticks["net.routers"]
        assert router_keys == {("net.routers", "Router")}
        assert kernel.component_seconds[("net.routers", "Router")] > 0
    assert ticks[True] == ticks[False]
