"""The end-to-end recovery layer: retransmission + invariant monitor.

The load-bearing claim on top of the fault layer's zero-silent contract:
with retransmission on, every detected fault becomes a *recovered*
bit-exact delivery (or an explicitly-accounted degradation) — zero lost
payloads, zero silent outcomes.

Environment knobs (the CI reliability-matrix job sweeps these):

- ``REPRO_FAULT_SEED`` — fault-plan seed for the campaign tests;
- ``REPRO_FAULT_TOPOLOGY`` — fabric for the campaign tests (mesh/torus);
- ``REPRO_RETRANSMISSION`` — ``0`` runs the campaign with recovery off
  (the zero-silent contract must hold either way);
- ``REPRO_WEDGE_DIR`` — when set, campaign failures write their summary
  and wedge snapshot there (CI uploads them as artifacts).
"""

import os
from pathlib import Path

import pytest

from repro.faults import (
    PERMANENT,
    CampaignSpec,
    FaultController,
    FaultPlan,
    ScheduledFault,
    run_fault_campaign,
)
from repro.noc import (
    InvariantViolation,
    Network,
    NocConfig,
    payload_crc,
)
from repro.noc.flit import Packet, PacketType

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "3"))
FAULT_TOPOLOGY = os.environ.get("REPRO_FAULT_TOPOLOGY", "mesh")
RETRANSMISSION = os.environ.get("REPRO_RETRANSMISSION", "1") != "0"

LINE = bytes(range(64))


def data_packet(src=0, dst=3, line=LINE):
    return Packet(
        PacketType.RESPONSE, src, dst, line=line,
        compressible=True, decompress_at_dst=True,
    )


def reliable_network(**overrides):
    overrides.setdefault("retransmission", True)
    network = Network(NocConfig(**overrides))
    delivered = []
    network.set_delivery_handler(lambda node, p: delivered.append(p))
    return network, delivered


class TestProtocolBasics:
    def test_payload_crc_sensitive_to_any_byte(self):
        a = data_packet()
        b = data_packet(line=LINE[:-1] + b"\x00")
        assert payload_crc(a) != payload_crc(b)
        assert payload_crc(Packet(PacketType.REQUEST, 0, 1)) == payload_crc(
            Packet(PacketType.REQUEST, 2, 3)
        )  # control packets share the empty-payload CRC

    def test_send_stamps_seq_and_crc(self):
        network, _ = reliable_network()
        first, second = data_packet(), data_packet()
        network.send(first)
        network.send(second)
        assert (first.seq, second.seq) == (0, 1)  # per-flow, in order
        assert first.crc == payload_crc(first)
        local = data_packet(src=2, dst=2)
        network.send(local)
        assert local.seq == -1  # same-tile traffic rides unprotected

    def test_recovered_group_registered_only_when_enabled(self):
        plain = Network(NocConfig())
        assert "recovered" not in plain.kernel.stats.groups()
        wired, _ = reliable_network()
        assert "recovered" in wired.kernel.stats.groups()

    def test_clean_run_acks_everything_and_retransmits_nothing(self):
        network, delivered = reliable_network()
        packets = [data_packet(src=i, dst=15 - i) for i in range(8)]
        for packet in packets:
            network.send(packet)
        network.run_until_quiescent(max_cycles=50_000)
        assert sorted(p.pid for p in delivered) == sorted(
            p.pid for p in packets
        )
        stats = network.recovered
        assert stats.acks_sent == len(packets)
        assert stats.retransmissions == 0
        assert stats.duplicates_dropped == 0
        assert stats.crc_rejections == 0
        assert stats.recovered_packets == 0


class TestRetransmissionRecovery:
    def test_ni_drop_is_recovered_bit_exact(self):
        network, delivered = reliable_network(retx_timeout=64)
        controller = FaultController(
            FaultPlan(seed=1, scheduled=(
                ScheduledFault(cycle=1, kind="drop"),
            )),
            raise_on_violation=False,
        )
        network.attach_faults(controller)
        for _ in range(3):
            network.tick()  # arm the scheduled drop
        packet = data_packet()
        network.send(packet)
        network.run_until_quiescent(max_cycles=50_000)
        # The first copy was swallowed at the NI; the replayed clone made it.
        assert [p.pid for p in delivered] == [packet.pid]
        assert delivered[0].line == LINE
        assert delivered[0].retransmissions >= 1
        stats = network.recovered
        assert stats.retransmissions >= 1
        assert stats.recovered_packets == 1
        counts = controller.reconcile(network.cycle)
        assert counts == {
            "detected": 0, "degraded": 0, "recovered": 1, "silent": 0,
        }
        assert not controller.checker.violations  # nothing was lost

    def test_corruption_is_nacked_and_redelivered_bit_exact(self):
        network, delivered = reliable_network(retx_timeout=64)
        controller = FaultController(
            FaultPlan(seed=1, scheduled=(
                ScheduledFault(cycle=1, kind="payload"),
            )),
            raise_on_violation=False,
        )
        network.attach_faults(controller)
        packet = data_packet()
        network.send(packet)
        network.run_until_quiescent(max_cycles=50_000)
        # The corrupted copy was CRC-rejected before the endpoint saw it.
        assert [p.pid for p in delivered] == [packet.pid]
        assert delivered[0].line == LINE
        stats = network.recovered
        assert stats.crc_rejections >= 1
        assert stats.nacks_sent >= 1
        assert stats.recovered_packets == 1
        counts = controller.reconcile(network.cycle)
        assert counts["recovered"] == 1
        assert counts["silent"] == 0
        assert controller.checker.mismatches == 0  # endpoint never saw dirt

    def test_duplicates_from_premature_timeouts_are_suppressed(self):
        # A timeout far below the round trip makes the source replay while
        # the original is still in flight: the destination must deliver
        # exactly once and drop the rest as duplicates.
        network, delivered = reliable_network(retx_timeout=8)
        packet = data_packet(src=0, dst=15)
        network.send(packet)
        network.run_until_quiescent(max_cycles=50_000)
        assert [p.pid for p in delivered] == [packet.pid]
        assert delivered[0].line == LINE
        stats = network.recovered
        assert stats.retransmissions >= 1
        assert stats.duplicates_dropped >= 1

    def test_retry_cap_abandons_to_loss_detection(self):
        # Every injection (original and clones alike) is swallowed at the
        # NI, so the replay buffer exhausts its retry budget and must hand
        # the packet to the integrity layer as an explicit loss.
        network, delivered = reliable_network(
            retx_timeout=32, retx_max_retries=2
        )
        controller = FaultController(
            FaultPlan(seed=1, drop_rate=1.0), raise_on_violation=False
        )
        network.attach_faults(controller)
        packet = data_packet()
        network.send(packet)
        network.run_until_quiescent(max_cycles=50_000)
        assert delivered == []
        assert network.recovered.retries_exhausted == 1
        counts = controller.reconcile(network.cycle)
        assert counts["silent"] == 0
        assert counts["recovered"] == 0
        assert counts["detected"] == controller.faults_injected
        violations = controller.checker.violations
        assert [v.reason for v in violations] == ["lost"]
        capsule = violations[0].capsule
        assert capsule.pid == packet.pid
        assert capsule.seq == 0
        assert "retransmissions" in capsule.describe()


class TestInvariantMonitor:
    def test_clean_traffic_passes_every_check(self):
        network, delivered = reliable_network(
            invariant_interval=16, retransmission=False
        )
        for i in range(8):
            network.send(data_packet(src=i, dst=15 - i))
        network.run_until_quiescent(max_cycles=50_000)
        assert len(delivered) == 8
        assert network.monitor is not None
        assert network.monitor.checks_run > 0
        assert network.monitor.violations_raised == 0

    def test_permanent_wedge_raises_structured_violation(self):
        network, _ = reliable_network(
            retransmission=False, invariant_interval=16,
            invariant_patience=3,
        )
        controller = FaultController(
            FaultPlan(seed=1, scheduled=(
                ScheduledFault(
                    cycle=3, kind="wedge", node=0, duration=PERMANENT
                ),
            )),
            raise_on_violation=False,
        )
        network.attach_faults(controller)
        network.send(data_packet())
        with pytest.raises(InvariantViolation) as excinfo:
            network.run_until_quiescent(max_cycles=50_000)
        violation = excinfo.value
        assert violation.kind == "forward-progress"
        assert "made no progress" in violation.detail
        assert "wedge snapshot" in violation.snapshot
        assert "wedged_until" in violation.snapshot
        assert violation.cycle > 0

    def test_permanent_wedge_is_squashed_and_recovered(self):
        network, delivered = reliable_network(
            retx_timeout=512, invariant_interval=16,
            invariant_patience=3, invariant_recovery=True,
        )
        controller = FaultController(
            FaultPlan(seed=1, scheduled=(
                ScheduledFault(
                    cycle=3, kind="wedge", node=0, duration=PERMANENT
                ),
            )),
            raise_on_violation=False,
        )
        network.attach_faults(controller)
        packet = data_packet()
        network.send(packet)
        network.run_until_quiescent(max_cycles=50_000)
        # The wedged chain was evicted and the victim replayed bit-exact.
        assert [p.pid for p in delivered] == [packet.pid]
        assert delivered[0].line == LINE
        stats = network.recovered
        assert stats.invariant_recoveries >= 1
        assert stats.flits_squashed > 0
        assert stats.recovered_packets == 1
        # The squash retired the victim's fabric handle; the replay's
        # own handle retired at its ejection.
        assert network.fabric.live_handles() == 0
        counts = controller.reconcile(network.cycle)
        assert counts["recovered"] == 1
        assert counts["silent"] == 0


def _artifact(report, name: str) -> None:
    """Drop the failing report (summary + wedge snapshot) where CI can
    pick it up as an artifact (``REPRO_WEDGE_DIR``)."""
    wedge_dir = os.environ.get("REPRO_WEDGE_DIR")
    if not wedge_dir:
        return
    directory = Path(wedge_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(report.summary() + "\n")


class TestRecoveryCampaign:
    """The acceptance bar: mixed campaigns with zero lost payloads."""

    PLAN = FaultPlan(
        seed=FAULT_SEED,
        payload_rate=0.006,
        drop_rate=0.03,
        credit_rate=0.006,
        wedge_rate=0.003,
        engine_stall_rate=0.15,
        engine_bitflip_rate=0.15,
    )

    def spec(self, **kwargs) -> CampaignSpec:
        kwargs.setdefault("topology", FAULT_TOPOLOGY)
        kwargs.setdefault("cycles", 900)
        kwargs.setdefault("injection_rate", 0.06)
        kwargs.setdefault("retransmission", RETRANSMISSION)
        return CampaignSpec(**kwargs)

    def test_campaign_matrix_no_silent_no_lost(self):
        spec = self.spec()
        report = run_fault_campaign(spec, self.PLAN)
        try:
            assert report.faults_injected > 0
            assert report.silent == 0, report.summary()
            if spec.retransmission:
                # Recovery on: every payload arrives, bit-exact, and at
                # least some of the faults were healed by retransmission.
                assert report.recovered > 0, report.summary()
                assert report.lost_payloads == 0, report.summary()
                assert report.packets_delivered == report.packets_sent
                assert report.watchdog is None, report.summary()
            ledger = (
                report.detected + report.degraded + report.recovered
            )
            assert ledger == report.faults_injected
        except AssertionError:
            _artifact(report, f"campaign-{spec.topology}-seed{FAULT_SEED}")
            raise

    def test_retransmission_off_is_still_never_silent(self):
        report = run_fault_campaign(
            self.spec(cycles=400, retransmission=False),
            FaultPlan(seed=FAULT_SEED, drop_rate=0.03, credit_rate=0.006),
        )
        try:
            assert report.faults_injected > 0
            assert report.silent == 0, report.summary()
            assert report.recovered == 0  # nothing claims recovery
        except AssertionError:
            _artifact(
                report, f"campaign-off-{report.spec.topology}-seed{FAULT_SEED}"
            )
            raise

    def test_report_summary_shows_recovery_accounting(self):
        report = run_fault_campaign(
            self.spec(cycles=300, retransmission=True),
            FaultPlan(seed=FAULT_SEED, drop_rate=0.05),
        )
        text = report.summary()
        assert "retransmission on" in text
        assert "recovered=" in text
        assert "recovery:" in text
        assert "lost payloads" in text
