"""Tests for delay statistics and reliability measures."""

import math

import pytest

from repro.analysis import (
    delay_stats,
    delivery_fraction,
    recovery_locality,
    system_delay_stats,
    time_to_full_delivery,
)
from repro.core import DeliveryRecord
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator

SRC, A, B = HostId("src"), HostId("a"), HostId("b")


def rec(seq, created=0.0, delivered=1.0, supplier=SRC, gapfill=False):
    return DeliveryRecord(seq=seq, content=None, created_at=created,
                          delivered_at=delivered, supplier=supplier,
                          via_gapfill=gapfill)


class TestDelayStats:
    def test_empty(self):
        stats = delay_stats([])
        assert stats.count == 0
        assert math.isnan(stats.mean)

    def test_basic_stats(self):
        stats = delay_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.p50 == 2.5
        assert stats.max == 4.0

    def test_empty_p999_is_nan(self):
        assert math.isnan(delay_stats([]).p999)

    def test_percentiles_are_ordered_and_serialized(self):
        stats = delay_stats([float(v) for v in range(1, 1001)])
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.p999 <= stats.max
        assert stats.p999 == pytest.approx(999.001)
        assert stats.as_dict()["p999"] == stats.p999

    def test_p999_separates_the_extreme_tail_from_p99(self):
        values = [1.0] * 998 + [50.0, 1000.0]
        stats = delay_stats(values)
        assert stats.p99 < 50.0 < stats.p999

    def test_system_stats_exclude_source(self):
        records = {
            SRC: [rec(1, delivered=0.0)],
            A: [rec(1, created=0.0, delivered=2.0)],
            B: [rec(1, created=0.0, delivered=4.0)],
        }
        stats = system_delay_stats(records, source=SRC)
        assert stats.count == 2
        assert stats.mean == 3.0

    def test_since_seq_filters(self):
        records = {A: [rec(1, delivered=100.0), rec(2, delivered=1.0)]}
        stats = system_delay_stats(records, source=SRC, since_seq=1)
        assert stats.count == 1
        assert stats.mean == 1.0

    def test_upto_seq_bounds_the_window_above(self):
        records = {A: [rec(1, delivered=1.0), rec(2, delivered=2.0),
                       rec(3, delivered=300.0)]}
        stats = system_delay_stats(records, source=SRC, since_seq=1,
                                   upto_seq=2)
        assert stats.count == 1
        assert stats.mean == 2.0
        assert system_delay_stats(records, source=SRC).count == 3


class TestDeliveryFraction:
    def test_full(self):
        records = {A: [rec(1), rec(2)], B: [rec(1), rec(2)]}
        assert delivery_fraction(records, 2, source=SRC) == 1.0

    def test_partial(self):
        records = {A: [rec(1)], B: [rec(1), rec(2)]}
        assert delivery_fraction(records, 2, source=SRC) == 0.75

    def test_source_excluded(self):
        records = {SRC: [], A: [rec(1)]}
        assert delivery_fraction(records, 1, source=SRC) == 1.0

    def test_validates(self):
        with pytest.raises(ValueError):
            delivery_fraction({}, 0)


class TestTimeToFullDelivery:
    def test_complete(self):
        records = {A: [rec(1, delivered=3.0), rec(2, delivered=7.0)]}
        assert time_to_full_delivery(records, 2, source=SRC) == 7.0

    def test_incomplete_is_nan(self):
        records = {A: [rec(1)]}
        assert math.isnan(time_to_full_delivery(records, 2, source=SRC))


class TestRecoveryLocality:
    def build_network(self):
        sim = Simulator(seed=0)
        built = wan_of_lans(sim, clusters=2, hosts_per_cluster=2,
                            backbone="line", convergence_delay=0.0)
        return built.network

    def test_classification(self):
        network = self.build_network()
        src = HostId("h0.0")
        h01, h10, h11 = HostId("h0.1"), HostId("h1.0"), HostId("h1.1")
        records = {
            h01: [rec(1, supplier=src, gapfill=True)],        # same cluster + source
            h10: [rec(1, supplier=h11, gapfill=True)],        # same cluster
            h11: [rec(1, supplier=src, gapfill=True),         # other cluster + source
                  rec(2, supplier=h10, gapfill=False)],       # not a recovery
        }
        locality = recovery_locality(records, network, src)
        assert locality.total_recoveries == 3
        assert locality.from_same_cluster == 2
        assert locality.from_other_cluster == 1
        assert locality.from_source == 2
        assert locality.local_fraction == pytest.approx(2 / 3)

    def test_empty_is_nan(self):
        network = self.build_network()
        locality = recovery_locality({}, network, HostId("h0.0"))
        assert locality.total_recoveries == 0
        assert math.isnan(locality.local_fraction)
