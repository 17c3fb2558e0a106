"""The DISCO router (§3.1, Fig. 2): baseline pipeline + engine + arbitrator.

Two components are added to the conventional 3-stage router: the *DISCO
compressor* attached to the input buffers, and the *DISCO arbitrator*
cooperating with RC/VA/SA.  The arbitrator sees this cycle's allocation
losers (before route computation can change any output port) plus the
packets still waiting for a downstream VC, computes their confidence and,
when it clears the threshold, hands the packet to the engine while the
shadow copy stays schedulable in the VC.

The baseline stages are the plain router's; only :meth:`DiscoRouter.post_tick`
(arbitrator, RC, engine) is DISCO's own.  The native router sweep
(:mod:`repro.noc.native`) runs SA/ST/VA of a DISCO router in C and calls
``post_tick`` itself, only on the cycles it has work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.compression.base import CompressionAlgorithm
from repro.compression.registry import get_algorithm
from repro.core.arbitrator import DiscoArbitrator, candidate_code
from repro.core.config import DiscoConfig
from repro.core.engine import DiscoCompressorEngine
from repro.noc.config import NocConfig
from repro.noc.router import VC_VA, InputVC, Router

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network


class DiscoRouter(Router):
    """A mesh router with an in-network (de)compression engine."""

    def __init__(
        self,
        node: int,
        config: NocConfig,
        network: "Network",
        disco: DiscoConfig,
        algorithm: CompressionAlgorithm,
    ):
        super().__init__(node, config, network)
        self.disco = disco
        self.engine = DiscoCompressorEngine(self, disco, algorithm)
        self.arbitrator = DiscoArbitrator(self, disco, self.engine)
        self.fs.candidate_filter = candidate_code

    def tick(self, cycle: Optional[int] = None) -> None:
        sa, va, rc = self._stage_lists()
        candidates = None
        if sa is not None:
            losers, blocked = self._switch_allocation(sa)
            if losers is not None or blocked is not None:
                candidates = (losers or []) + (blocked or [])
        if va is not None:
            self._vc_allocation(va)
        self.post_tick(candidates, rc)

    def post_tick(
        self,
        candidates: Optional[List[InputVC]],
        routed: Optional[List[InputVC]],
    ) -> None:
        """The DISCO half of a cycle, after SA/ST and VA: the arbitrator
        over ``candidates`` (this cycle's SA losers, then its SA-blocked
        VCs), route computation for ``routed``, the arbitrator over the
        VA-blocked VCs, and one engine cycle.

        The first ``consider`` must precede RC: ``local_contention`` reads
        every VC's ``out_port``, which RC writes.  It may follow VA, which
        changes nothing the arbitrator or the engine admission reads.
        """
        cycle = self.network.cycle
        if candidates:
            self.arbitrator.consider(candidates, cycle)
        if routed:
            self._route_computation(routed)
        # Packets stuck in VC allocation are idle candidates too: they have
        # a routed direction but no downstream VC (step-1 counts both VA
        # and SA losers).
        fs = self.fs
        states = fs.state
        waits = fs.wait_cycles
        va_blocked = [
            fs.views[i]
            for i in range(self._vid_lo, self._vid_hi)
            if states[i] == VC_VA and waits[i] > 0
        ]
        if va_blocked:
            self.arbitrator.consider(va_blocked, cycle)
        self.engine.tick(cycle)

    def has_work(self) -> bool:
        return super().has_work() or self.engine.busy()

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["engine"] = self.engine.state_dict()
        state["arbitrator"] = self.arbitrator.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        # Base restore clears every VC's engine_job; the engine restore
        # re-links its live jobs afterwards.
        super().load_state(state)
        self.engine.load_state(state["engine"])
        self.arbitrator.load_state(state["arbitrator"])

    # -- DISCO hook implementations ------------------------------------------
    def _can_send(self, vc: InputVC) -> bool:
        job = vc.engine_job
        if job is not None:
            # A streaming job whose flits entered the compressor is
            # committed; without non-blocking support every job locks its
            # shadow (the shadow-invalid bit of §3.2) until completion.
            if job.committed or not self.disco.non_blocking:
                return False
        return super()._can_send(vc)

    def _on_first_flit_sent(self, vc: InputVC) -> None:
        if vc.engine_job is not None:
            self.engine.abort(vc)


def make_disco_router_factory(
    disco: DiscoConfig,
    algorithm: Optional[CompressionAlgorithm] = None,
):
    """Router factory for :class:`repro.noc.network.Network`.

    One (cached) algorithm instance is shared by all routers — results are
    deterministic and the shared memo keeps simulation fast.
    """
    shared = algorithm or get_algorithm(disco.algorithm)

    def factory(node: int, config: NocConfig, network: "Network") -> DiscoRouter:
        return DiscoRouter(node, config, network, disco, shared)

    return factory
