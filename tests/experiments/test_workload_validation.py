"""Arrival-schedule validation and determinism.

Saturation sweeps lean on two properties: invalid parameters fail
loudly *naming the parameter* (a combined error made sweep callers
bisect their own argument lists), and identical seeds produce identical
arrival schedules for every generator shape.
"""

import pytest

from repro.experiments import arrival_times
from repro.experiments.saturation import (
    ARRIVAL_SHAPES,
    bursty_arrival_times,
    diurnal_arrival_times,
    poisson_arrival_times,
)
from repro.sim import Simulator


class TestArrivalValidation:
    def test_poisson_rejects_nonpositive(self):
        rng = Simulator(seed=0).rng.stream("t")
        with pytest.raises(ValueError):
            poisson_arrival_times(rng, rate=0.0, duration=10.0)
        with pytest.raises(ValueError):
            poisson_arrival_times(rng, rate=1.0, duration=0.0)

    def test_bursty_rejects_bad_shape_params(self):
        rng = Simulator(seed=0).rng.stream("t")
        with pytest.raises(ValueError, match="burst_size"):
            bursty_arrival_times(rng, 1.0, 10.0, burst_size=0)
        with pytest.raises(ValueError):
            bursty_arrival_times(rng, 1.0, 10.0, intra_burst_interval=0.0)

    def test_diurnal_rejects_bad_depth_and_period(self):
        rng = Simulator(seed=0).rng.stream("t")
        with pytest.raises(ValueError, match="depth"):
            diurnal_arrival_times(rng, 1.0, 10.0, depth=1.0)
        with pytest.raises(ValueError):
            diurnal_arrival_times(rng, 1.0, 10.0, period=0.0)

    def test_unknown_shape_names_the_known_ones(self):
        rng = Simulator(seed=0).rng.stream("t")
        with pytest.raises(ValueError, match="poisson"):
            arrival_times("sawtooth", rng, 1.0, 10.0)


class TestDeterminism:
    """Same seed, same schedule — across all three arrival shapes."""

    def schedule(self, shape, seed):
        rng = Simulator(seed=seed).rng.stream("workload.saturation")
        return arrival_times(shape, rng, rate=4.0, duration=25.0)

    @pytest.mark.parametrize("shape", ARRIVAL_SHAPES)
    def test_identical_seed_identical_schedule(self, shape):
        assert self.schedule(shape, 42) == self.schedule(shape, 42)

    @pytest.mark.parametrize("shape", ARRIVAL_SHAPES)
    def test_different_seed_different_schedule(self, shape):
        assert self.schedule(shape, 42) != self.schedule(shape, 43)

    @pytest.mark.parametrize("shape", ARRIVAL_SHAPES)
    def test_schedules_stay_in_window_and_ordered(self, shape):
        times = self.schedule(shape, 42)
        assert times, "expected a nonempty schedule at rate*duration=100"
        assert all(0 <= t < 25.0 for t in times)
        assert times == sorted(times)

    def test_mean_rate_is_roughly_preserved_across_shapes(self):
        counts = {shape: len(self.schedule(shape, 42))
                  for shape in ARRIVAL_SHAPES}
        for shape, count in counts.items():
            assert 60 <= count <= 140, (shape, count)
