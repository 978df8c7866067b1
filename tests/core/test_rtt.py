"""Unit tests for the adaptive control-plane timing primitives."""

import math
import random

import pytest

from repro.core import (
    BroadcastSystem,
    CongestionSignal,
    ExponentialBackoff,
    PeerRtt,
    ProtocolConfig,
    RttEstimator,
)
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator

A = HostId("a")


# -- RttEstimator -------------------------------------------------------


def test_first_sample_initialises_srtt_and_rttvar():
    est = RttEstimator()
    assert est.rto() is None
    est.observe(0.2)
    assert est.srtt == pytest.approx(0.2)
    assert est.rttvar == pytest.approx(0.1)
    # RFC 6298: RTO = SRTT + 4 * RTTVAR
    assert est.rto() == pytest.approx(0.2 + 4 * 0.1)


def test_smoothing_follows_rfc6298_gains():
    est = RttEstimator()
    est.observe(0.2)
    est.observe(0.4)
    assert est.rttvar == pytest.approx(0.75 * 0.1 + 0.25 * abs(0.2 - 0.4))
    assert est.srtt == pytest.approx(0.875 * 0.2 + 0.125 * 0.4)


def test_negative_and_nonfinite_samples_ignored():
    est = RttEstimator()
    est.observe(-1.0)
    est.observe(float("nan"))
    est.observe(float("inf"))
    assert est.samples == 0
    assert est.rto() is None


def test_karn_backoff_doubles_and_resets_on_sample():
    est = RttEstimator()
    est.observe(0.1)
    base = est.rto()
    est.on_timeout()
    assert est.rto() == pytest.approx(2 * base)
    est.on_timeout()
    assert est.rto() == pytest.approx(4 * base)
    est.observe(0.1)  # valid sample ends the backoff
    assert est.rto() == pytest.approx(est.srtt + 4 * est.rttvar)


def test_backoff_multiplier_is_capped():
    est = RttEstimator()
    est.observe(0.1)
    base = est.rto()
    for _ in range(100):
        est.on_timeout()
    assert est.rto() <= 64 * base + 1e-9


def test_rttvar_floor_keeps_rto_above_srtt():
    est = RttEstimator()
    for _ in range(50):
        est.observe(0.25)  # variance decays toward zero
    assert est.rto() >= est.srtt + 0.001


# -- PeerRtt ------------------------------------------------------------


def test_unmeasured_peer_returns_the_ceiling():
    rtt = PeerRtt()
    assert rtt.rto(A, floor=0.1, ceiling=2.0) == 2.0
    assert rtt.samples(A) == 0
    assert rtt.srtt(A) is None


def test_measured_peer_is_clamped_to_floor_and_ceiling():
    rtt = PeerRtt()
    rtt.observe(A, 0.01)
    assert rtt.rto(A, floor=0.2, ceiling=2.0) == 0.2
    rtt.observe(A, 100.0)
    assert rtt.rto(A, floor=0.2, ceiling=2.0) == 2.0
    assert rtt.samples(A) == 2


def test_peer_timeout_before_any_sample_is_harmless():
    rtt = PeerRtt()
    rtt.on_timeout(A)
    assert rtt.rto(A, floor=0.1, ceiling=2.0) == 2.0


# -- ExponentialBackoff -------------------------------------------------


def test_backoff_doubles_up_to_the_cap():
    bo = ExponentialBackoff(base=1.0, cap=8.0, jitter_frac=0.0,
                            rng=random.Random(0))
    assert [bo.next_delay() for _ in range(5)] == [1.0, 2.0, 4.0, 8.0, 8.0]
    bo.reset()
    assert bo.next_delay() == 1.0


def test_backoff_jitter_stays_within_band():
    bo = ExponentialBackoff(base=1.0, cap=64.0, jitter_frac=0.25,
                            rng=random.Random(7))
    for k in range(6):
        nominal = min(2.0 ** k, 64.0)
        delay = bo.next_delay()
        assert 0.75 * nominal <= delay <= 1.25 * nominal


def test_backoff_rejects_bad_parameters():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        ExponentialBackoff(base=0.0, cap=1.0, jitter_frac=0.0, rng=rng)
    with pytest.raises(ValueError):
        ExponentialBackoff(base=2.0, cap=1.0, jitter_frac=0.0, rng=rng)
    with pytest.raises(ValueError):
        ExponentialBackoff(base=1.0, cap=2.0, jitter_frac=1.0, rng=rng)


# -- CongestionSignal ---------------------------------------------------


def test_congestion_level_is_recent_bad_fraction():
    sig = CongestionSignal(window=10.0)
    for _ in range(3):
        sig.note_good(0.0)
    sig.note_bad(0.0)
    assert sig.level(0.0) == pytest.approx(0.25)


def test_congestion_quiet_signal_reads_zero():
    sig = CongestionSignal(window=10.0)
    assert sig.level(5.0) == 0.0
    sig.note_bad(0.0)
    # One half-life later the single tally has decayed below the
    # one-receive evidence threshold.
    assert sig.level(10.0) == 0.0


def test_congestion_decays_with_half_life():
    sig = CongestionSignal(window=10.0)
    for _ in range(8):
        sig.note_bad(0.0)
    for _ in range(8):
        sig.note_good(20.0)  # two half-lives: bad tally now 2
    assert sig.level(20.0) == pytest.approx(2.0 / 10.0)


def test_congestion_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        CongestionSignal(window=0.0)


# ----------------------------------------------------------------------
# Host level: the estimators are fed only while something reads them
# (DESIGN.md §9); tests/core/test_resources.py covers the admission
# brake, the congestion signal's one reader outside adaptive mode
# ----------------------------------------------------------------------


def _exchange_info(adaptive):
    """A 1x3 system that streams a few messages and exchanges INFO for
    a while; returns the system, one non-source host and the peers whose
    InfoMsgs to that host carried an echo of its stamp."""
    sim = Simulator(seed=3)
    built = wan_of_lans(sim, clusters=1, hosts_per_cluster=3,
                        convergence_delay=0.0)
    system = BroadcastSystem(
        built, config=ProtocolConfig(adaptive=adaptive)).start()
    host = system.hosts[HostId("h0.1")]
    echoed_by = set()
    on_info = host._on_info

    def spy(msg, sender):
        if msg.echo_stamp >= 0.0:
            echoed_by.add(sender)
        on_info(msg, sender)

    host._on_info = spy
    system.broadcast_stream(3, interval=1.0, start_at=1.0)
    sim.run(until=10.0)
    return system, host, echoed_by


def test_fixed_mode_exchanges_echoes_but_feeds_no_estimator():
    _, host, echoed_by = _exchange_info(adaptive=False)
    assert echoed_by  # the stamps and echoes are still on the wire
    for peer in echoed_by:
        assert host._rtt.samples(peer) == 0
    assert host._congestion.level(host.runtime.now()) == 0.0
    assert (host._congestion._good, host._congestion._bad) == (0.0, 0.0)


def test_adaptive_mode_samples_the_same_echoes():
    _, host, echoed_by = _exchange_info(adaptive=True)
    assert echoed_by
    for peer in echoed_by:
        assert host._rtt.samples(peer) > 0
        rto = host._rtt.rto(peer, floor=0.0, ceiling=math.inf)
        assert math.isfinite(rto) and rto > 0.0
    assert host._congestion._good > 0.0


@pytest.mark.parametrize("adaptive", [False, True])
def test_crash_resets_the_estimators(adaptive):
    system, host, echoed_by = _exchange_info(adaptive=adaptive)
    system.crash_host(host.me)
    for peer in echoed_by:
        assert host._rtt.samples(peer) == 0
    assert (host._congestion._good, host._congestion._bad) == (0.0, 0.0)
