"""Unit and property tests for metrics primitives."""

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Histogram, Simulator


def test_counter_increments_and_rejects_negative():
    sim = Simulator()
    counter = sim.metrics.counter("sent")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_registry_returns_same_object():
    sim = Simulator()
    assert sim.metrics.counter("a") is sim.metrics.counter("a")


def test_counters_snapshot_with_prefix():
    sim = Simulator()
    sim.metrics.counter("net.sent").inc(3)
    sim.metrics.counter("net.recv").inc(2)
    sim.metrics.counter("host.deliver").inc(1)
    assert sim.metrics.counters("net.") == {"net.recv": 2, "net.sent": 3}


def test_gauge_tracks_peak():
    sim = Simulator()
    gauge = sim.metrics.gauge("queue")
    gauge.set(5)
    gauge.add(-2)
    gauge.add(1)
    assert gauge.value == 4
    assert gauge.peak == 5


def test_histogram_basic_stats():
    h = Histogram("delay")
    for v in [1.0, 2.0, 3.0, 4.0]:
        h.observe(v)
    assert h.count == 4
    assert h.sum == 10.0
    assert h.mean == 2.5
    assert h.min == 1.0
    assert h.max == 4.0
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 4.0
    assert h.quantile(0.5) == 2.5


def test_histogram_empty_returns_nan():
    h = Histogram("x")
    assert math.isnan(h.mean)
    assert math.isnan(h.quantile(0.5))
    assert math.isnan(h.min)


def test_histogram_quantile_bounds_checked():
    h = Histogram("x")
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_count_above():
    h = Histogram("x")
    for v in [1.0, 2.0, 2.0, 3.0]:
        h.observe(v)
    assert h.count_above(2.0) == 1
    assert h.count_above(0.5) == 4
    assert h.count_above(3.0) == 0


def test_histogram_stddev():
    h = Histogram("x")
    for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        h.observe(v)
    assert h.stddev() == pytest.approx(2.138, abs=1e-3)
    single = Histogram("y")
    single.observe(1.0)
    assert single.stddev() == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_histogram_quantiles_monotone_and_bounded(samples):
    h = Histogram("p")
    for s in samples:
        h.observe(s)
    qs = [h.quantile(q / 10) for q in range(11)]
    assert qs == sorted(qs)
    assert qs[0] == min(samples)
    assert qs[-1] == max(samples)
    assert h.mean == pytest.approx(sum(samples) / len(samples), rel=1e-9, abs=1e-6)


@given(st.lists(st.tuples(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from(["none", "quantile", "min", "max", "count_above", "stddev"])),
    min_size=1, max_size=60))
def test_histogram_reads_interleaved_with_observes_match_sorted(steps):
    """Samples are sorted on read, not on insert: every statistic must
    equal the one computed from ``sorted()`` however reads and writes mix."""
    h = Histogram("x")
    seen = []
    for value, read in steps:
        h.observe(value)
        seen.append(value)
        ordered = sorted(seen)
        if read == "quantile":
            assert h.quantile(0.0) == ordered[0]
            assert h.quantile(1.0) == ordered[-1]
            assert ordered[0] <= h.quantile(0.5) <= ordered[-1]
            if len(ordered) % 2:
                assert h.quantile(0.5) == ordered[len(ordered) // 2]
        elif read == "min":
            assert h.min == ordered[0]
        elif read == "max":
            assert h.max == ordered[-1]
        elif read == "count_above":
            assert h.count_above(value) == sum(1 for s in seen if s > value)
        elif read == "stddev":
            mean = h.sum / len(seen)
            expected = (math.sqrt(sum((s - mean) ** 2 for s in ordered)
                                  / (len(seen) - 1)) if len(seen) > 1 else 0.0)
            assert h.stddev() == expected
        assert h.count == len(seen)
    assert h.sum == pytest.approx(math.fsum(seen), abs=1e-6)


def test_histogram_retains_at_most_10_bytes_per_sample():
    """Each sample is a fresh float, as a run's delays are; the
    histogram keeps its value, not the object."""
    n = 20_000
    h = Histogram("delay")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            h.observe(i * 0.125 + 0.5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.count == n and h.max == (n - 1) * 0.125 + 0.5
    assert retained / n <= 10, f"{retained / n:.1f} B per sample"
