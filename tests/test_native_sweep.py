"""The native router sweep (:mod:`repro.noc.native`) against the Python path.

The Python router pipeline is the oracle: every run here is made twice,
once with the plain routers swept in C and once with
``native_sweep=False``, and the two must agree on every counter and on
``result_digest``.  Covered: the five golden digests, a bounded
hypothesis draw over topology × flow control × VC count × scheme, a
hybrid DISCO/plain fabric, every fallback trigger (including a missing
compiler), cross-path checkpoint restores, the per-VC invariants the C
side relies on, and the kernel's driver-phase instrumentation.

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
from repro.core.disco_router import DiscoRouter
from repro.core.scheduling import disco_priority
from repro.experiments import checkpoint, runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec, result_digest
from repro.faults import FaultController, FaultPlan
from repro.noc import FlowControl, Network, NocConfig, native
from repro.noc.router import VC_IDLE, Router
from repro.noc.traffic import SyntheticTraffic, TrafficConfig
from tests.test_golden_mesh import GOLDEN_DIGESTS

CYCLES = 600


def _native_available() -> bool:
    return native.load()[0] is not None


needs_native = pytest.mark.skipif(
    not _native_available(),
    reason=f"native sweep unavailable: {native.load()[1]}",
)


# -- helpers -----------------------------------------------------------------
def _system(spec, native_sweep, noc=None):
    """``runner._simulate``'s construction, with an optional fabric."""
    from repro.workloads.trace import generate_traces

    config = spec.config() if noc is None else SystemConfig.scaled_fabric(noc)
    traces = generate_traces(
        spec.profile(), config.n_cores, spec.accesses_per_core,
        seed=spec.seed, line_size=config.line_size,
    )
    system = CmpSystem(
        config, make_scheme(spec.scheme, algorithm=spec.algorithm), traces,
        warmup_fraction=spec.warmup_fraction, native_sweep=native_sweep,
    )
    runner._train_if_needed(system, spec)
    return system


def _pair(spec, noc=None):
    """(native result, Python result, native system) of one spec."""
    fast = _system(spec, True, noc)
    native_result = fast.run()
    python_result = _system(spec, False, noc).run()
    return native_result, python_result, fast


def _assert_same(a, b):
    assert a.counters_full == b.counters_full
    assert result_digest(a) == result_digest(b)


def _network_run(native_sweep, *, factory=None, faults=None, setup=None,
                 network_cls=Network, rate=0.05, seed=11, **noc):
    """A synthetic-traffic run; returns (fingerprint, network)."""
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
    traffic.run(CYCLES)
    fingerprint = {
        "cycle": network.cycle,
        "network": network._network_counters(),
        "sa_losses": network.stats.sa_losses,
        "degraded": network.degraded.counters(),
        "recovered": network.recovered.counters(),
        "wakes": network.kernel.kernel_counters(),
        # Pids are process-global: rebase to the run's own watermark.
        "delivered": [
            (p.pid - base, p.src, p.dst, p.ptype.value, p.ejected_cycle)
            for p in traffic.delivered
        ],
    }
    return fingerprint, network


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
        if scheme == "disco":
            assert "packet_priority is not a constant policy" in note
        else:
            assert note.startswith("native (")


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
    return NocConfig(width=shape[0], height=shape[1], topology=topology,
                     flow_control=flow, vcs_per_vnet=vcs, vc_depth=depth)


@given(
    noc=fabrics(),
    scheme=st.sampled_from(["ideal", "baseline", "cc", "cnc"]),
    workload=st.sampled_from(["blackscholes", "canneal"]),
    seed=st.integers(1, 10_000),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_generated_configs_agree(noc, scheme, workload, seed):
    spec = RunSpec(scheme=scheme, workload=workload, accesses_per_core=40,
                   seed=seed)
    native_result, python_result, _system_ = _pair(spec, noc)
    _assert_same(native_result, python_result)


@pytest.mark.parametrize("topology,vcs", [("mesh", 1), ("torus", 2), ("ring", 3)])
def test_hybrid_disco_fabric_agrees(topology, vcs):
    """DISCO routers tick in Python between native runs of plain ones;
    the order of side effects (and so every counter) is unchanged."""
    kwargs = dict(factory=_hybrid_factory(), topology=topology,
                  vcs_per_vnet=vcs, rate=0.08)
    fast, network = _network_run(True, **kwargs)
    slow, _ = _network_run(False, **kwargs)
    assert fast == slow
    assert fast["network"]["router_compressions"] > 0  # DISCO really ran


@needs_native
def test_hybrid_fabric_ticks_only_disco_routers_in_python(monkeypatch):
    ticked = {"plain": 0, "disco": 0}
    plain_tick, disco_tick = Router.tick, DiscoRouter.tick

    def count_plain(self, cycle=None):
        ticked["plain"] += 1
        return plain_tick(self, cycle)

    def count_disco(self, cycle=None):
        ticked["disco"] += 1
        return disco_tick(self, cycle)

    monkeypatch.setattr(Router, "tick", count_plain)
    monkeypatch.setattr(DiscoRouter, "tick", count_disco)
    _network_run(True, factory=_hybrid_factory(), rate=0.08)
    # DiscoRouter.tick chains to Router.tick once per DISCO visit.
    assert ticked["disco"] > 0
    assert ticked["plain"] == ticked["disco"]


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
        def setup(network):
            network.packet_priority = disco_priority

        self._check("packet_priority is not a constant policy", setup=setup)

    def test_disco_routers_fall_back_per_router(self):
        """DiscoRouter overrides stage hooks, so it is never swept in C
        (exact-type check); an all-DISCO fabric matches the Python path."""
        factory = make_disco_router_factory(DiscoConfig())
        fast, network = _network_run(True, factory=factory)
        assert fast == _network_run(False, factory=factory)[0]
        if _native_available():
            assert network.kernel.annotations["noc.sweep"].startswith("native (")


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
        assert result_digest(runner._simulate(spec)) == GOLDEN_DIGESTS["cc"]

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
@pytest.mark.parametrize("scheme", ["baseline", "cnc"])
@pytest.mark.parametrize("first,second", [(True, False), (False, True)])
def test_checkpoint_crosses_paths(scheme, first, second):
    """Pause on one path, restore on the other, finish: the snapshot bytes
    at the pause and the finished result are identical to a run that
    never switched."""
    from repro.noc import flit

    spec = RunSpec(scheme=scheme, workload="blackscholes",
                   accesses_per_core=QUICK_ACCESSES)
    snapshots = {}
    start = flit.pid_watermark()
    for path in (first, second):
        # Pids are process-global: both runs allocate from one start so
        # the pickled packets compare byte for byte.
        flit._packet_ids.value = start
        system = _system(spec, path)
        assert system.run(pause_at=1500) is None
        snapshots[path] = pickle.dumps(system.state_dict(),
                                       pickle.HIGHEST_PROTOCOL)
    assert snapshots[first] == snapshots[second]
    fresh = checkpoint.build_system(spec, native_sweep=second)
    fresh.load_state(pickle.loads(snapshots[first]))
    assert result_digest(fresh.run()) == GOLDEN_DIGESTS[scheme]


# -- invariants the C side relies on -----------------------------------------
def test_idle_state_means_no_packet_and_mirrors_track_packets():
    """``state == VC_IDLE`` exactly when no packet is bound (the C side
    never sees packets), and the size/vnet mirrors match every bound
    packet of a plain router, checked every cycle of a hybrid run."""
    network = Network(NocConfig(vcs_per_vnet=2),
                      router_factory=_hybrid_factory())
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=0.08, seed=3)
    )
    fs = network.fabric
    bound_seen = 0
    for _ in range(400):
        traffic.step()
        for vid, packet in enumerate(fs.packet):
            assert (fs.state[vid] == VC_IDLE) == (packet is None), vid
            if packet is not None:
                bound_seen += 1
                if type(fs.views[vid].router) is Router:
                    assert fs.pkt_size[vid] == packet.size_flits
                    assert fs.pkt_vnet[vid] == packet.ptype.vnet
    assert bound_seen > 0


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
    assert fresh.fabric.pkt_size.tolist() == [
        0 if p is None else p.size_flits for p in fresh.fabric.packet
    ]
    assert any(p is not None for p in fresh.fabric.packet)
    assert fresh.fabric.sa_rr.tolist() == network.fabric.sa_rr.tolist()


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
