"""Tests for the host clock-skew model and its protocol interaction."""

import pytest

from repro.core import (
    BroadcastSystem,
    CostBitMode,
    ProtocolConfig,
)
from repro.net import ClockModel, HostId, wan_of_lans
from repro.sim import Simulator


class TestClockModel:
    def test_default_is_true_time(self):
        sim = Simulator()
        model = ClockModel(sim)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert model.local_time(HostId("x")) == 5.0

    def test_offset_shifts_reading(self):
        sim = Simulator()
        model = ClockModel(sim)
        model.set_clock(HostId("x"), offset=0.25)
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert model.local_time(HostId("x")) == pytest.approx(4.25)

    def test_drift_grows_with_time(self):
        sim = Simulator()
        model = ClockModel(sim)
        model.set_clock(HostId("x"), drift=0.01)
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert model.local_time(HostId("x")) == pytest.approx(101.0)

    def test_offset_between(self):
        sim = Simulator()
        model = ClockModel(sim)
        model.set_clock(HostId("a"), offset=0.3)
        model.set_clock(HostId("b"), offset=-0.2)
        assert model.offset_between(HostId("a"), HostId("b")) == pytest.approx(0.5)

    def test_randomize_is_bounded_and_deterministic(self):
        hosts = [HostId(f"h{i}") for i in range(20)]

        def offsets(seed):
            sim = Simulator(seed=seed)
            model = ClockModel(sim).randomize(hosts, max_offset=0.4)
            return [model.local_time(h) for h in hosts]

        values = offsets(3)
        assert all(-0.4 <= v <= 0.4 for v in values)
        assert offsets(3) == values
        assert offsets(4) != values


class TestSkewedStamps:
    def build(self, offset):
        sim = Simulator(seed=0)
        built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                            backbone="line", convergence_delay=0.0)
        model = ClockModel(sim)
        model.set_clock(HostId("h0.1"), offset=offset)
        built.network.use_clocks(model)
        return sim, built

    def test_stamped_at_uses_local_clock(self):
        sim, built = self.build(offset=1.5)
        got = []
        built.network.host_port(HostId("h0.0")).set_receiver(got.append)
        from repro.net import RawPayload
        sim.schedule_at(10.0, lambda: built.network.host_port(
            HostId("h0.1")).send(HostId("h0.0"), RawPayload()))
        sim.run(until=12.0)
        (packet,) = got
        assert packet.sent_at == pytest.approx(10.0)      # true time
        assert packet.stamped_at == pytest.approx(11.5)   # skewed stamp

    def test_measurement_delay_unaffected_by_skew(self):
        sim, built = self.build(offset=5.0)
        built.network.host_port(HostId("h0.0")).set_receiver(lambda p: None)
        from repro.net import RawPayload
        sim.schedule_at(1.0, lambda: built.network.host_port(
            HostId("h0.1")).send(HostId("h0.0"), RawPayload()))
        sim.run(until=3.0)
        # net.h2h.delay uses true time; skew must not corrupt it.
        assert sim.metrics.histogram("net.h2h.delay").max < 1.0


class TestSkewAndInference:
    def run_timestamp_mode(self, max_offset, seed=0):
        sim = Simulator(seed=seed)
        built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                            backbone="line")
        if max_offset:
            built.network.use_clocks(
                ClockModel(sim).randomize(built.hosts, max_offset=max_offset))
        config = ProtocolConfig(cost_bit_mode=CostBitMode.TIMESTAMP)
        system = BroadcastSystem(built, config=config).start()
        system.broadcast_stream(5, interval=1.0, start_at=2.0)
        ok = system.run_until_delivered(5, timeout=300.0)
        sim.run(until=sim.now + 10.0)
        h00 = system.hosts[HostId("h0.0")]
        correct = (HostId("h0.1") in h00.cluster
                   and HostId("h1.0") not in h00.cluster
                   and HostId("h1.1") not in h00.cluster)
        return ok, correct

    def test_inference_correct_with_synchronized_clocks(self):
        ok, correct = self.run_timestamp_mode(max_offset=0.0)
        assert ok and correct

    def test_inference_tolerates_sub_transit_skew(self):
        # Offsets well below the expensive-path transit (~70 ms).
        ok, correct = self.run_timestamp_mode(max_offset=0.001)
        assert ok and correct

    def test_inference_degrades_under_large_skew_but_delivery_survives(self):
        """The paper's hidden assumption, made explicit: with offsets far
        above the cheap transit, cluster inference goes wrong — yet the
        protocol still delivers (wrong CLUSTER sets cost money, not
        correctness)."""
        ok, correct = self.run_timestamp_mode(max_offset=0.5)
        assert ok
        assert not correct

