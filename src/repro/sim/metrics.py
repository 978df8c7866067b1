"""Simulation metrics: counters, gauges and histograms.

The metrics registry is owned by the simulator.  The analysis layer
(:mod:`repro.analysis`) builds the paper's cost/delay tables from these
primitives plus the trace.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter (amount must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move both ways, with peak tracking."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Set the gauge value, tracking the peak."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, amount: float) -> None:
        """Add to the gauge value, tracking the peak."""
        self.set(self.value + amount)


class Histogram:
    """Exact histogram of observed samples with quantile queries.

    Recording appends to a packed ``array('d')`` (O(1), 8 B per sample
    plus the array's growth slack: about 8.4 B, against about 33 B for
    a list of boxed floats).  The samples are sorted into a fresh array
    when an order-dependent statistic is next read, so a run that
    records many and reads at the end sorts once.  Values are the same
    IEEE doubles either way.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples = array("d")
        self._sorted_count = 0  # how many of _samples the last sort covered
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._samples.append(value)
        self._sum += value

    def _sorted(self) -> array:
        """The samples in ascending order (sorts if any were added)."""
        samples = self._samples
        if self._sorted_count != len(samples):
            samples = self._samples = array("d", sorted(samples))
            self._sorted_count = len(samples)
        return samples

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples)

    @property
    def sum(self) -> float:
        """Sum of all recorded samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        if not self._samples:
            return math.nan
        return self._sum / len(self._samples)

    @property
    def min(self) -> float:
        """Smallest recorded value (NaN when empty)."""
        return self._sorted()[0] if self._samples else math.nan

    @property
    def max(self) -> float:
        """Largest recorded value (NaN when empty)."""
        return self._sorted()[-1] if self._samples else math.nan

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        samples = self._sorted()
        if not samples:
            return math.nan
        if len(samples) == 1:
            return samples[0]
        pos = q * (len(samples) - 1)
        low = int(math.floor(pos))
        high = int(math.ceil(pos))
        low_val, high_val = samples[low], samples[high]
        if low == high or low_val == high_val:
            return low_val
        frac = pos - low
        return low_val + frac * (high_val - low_val)

    def stddev(self) -> float:
        """Sample standard deviation (0 for fewer than two samples)."""
        if len(self._samples) < 2:
            return 0.0
        mean = self.mean
        # Summed in ascending order: the result must not depend on
        # whether an earlier read happened to sort the samples.
        var = sum((s - mean) ** 2 for s in self._sorted()) / (len(self._samples) - 1)
        return math.sqrt(var)

    def count_above(self, threshold: float) -> int:
        """Number of samples strictly greater than ``threshold``."""
        samples = self._sorted()
        return len(samples) - bisect_left(samples, math.nextafter(threshold, math.inf))


class MetricsRegistry:
    """Namespace of metrics owned by one simulator."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Snapshot of all counter values whose name starts with ``prefix``."""
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        """The histograms whose name starts with ``prefix``, by name."""
        return {
            name: histogram
            for name, histogram in sorted(self._histograms.items())
            if name.startswith(prefix)
        }
