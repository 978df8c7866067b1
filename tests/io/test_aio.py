"""AsyncioRuntime semantics: clock scaling, timers, periodics, RNG.

Wall-clock sensitive assertions use generous margins (the CI box may
stall for tens of milliseconds), and every scenario is compressed with
``time_scale`` so the whole module runs in well under a second.
"""

import asyncio

import pytest

from repro.io import AsyncioRuntime
from repro.sim import Simulator


def run(coro_fn, **runtime_kwargs):
    """Drive one scenario under a fresh loop and runtime."""
    async def main():
        return await coro_fn(AsyncioRuntime(**runtime_kwargs))
    return asyncio.run(main())


class TestClock:
    def test_starts_near_zero_and_is_monotone(self):
        runtime = AsyncioRuntime(seed=0)
        first = runtime.now()
        assert 0.0 <= first < 1.0
        assert runtime.now() >= first

    def test_time_scale_stretches_protocol_seconds(self):
        async def scenario(runtime):
            before = runtime.now()
            await asyncio.sleep(0.05)  # 0.05 wall = 5 protocol seconds
            return runtime.now() - before

        elapsed = run(scenario, seed=0, time_scale=0.01)
        assert elapsed >= 5.0  # never less than the wall time implies
        assert elapsed < 60.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            AsyncioRuntime(seed=0, time_scale=0.0)


class TestTimers:
    def test_timer_fires_once_after_delay(self):
        async def scenario(runtime):
            fired = []
            handle = runtime.start_timer(1.0, lambda: fired.append(runtime.now()))
            assert handle.armed
            await asyncio.sleep(0.08)  # 1 protocol sec = 10ms wall
            return handle, fired

        handle, fired = run(scenario, seed=0, time_scale=0.01)
        assert len(fired) == 1
        assert fired[0] >= 1.0
        assert not handle.armed  # expired handles read as disarmed

    def test_cancel_prevents_fire(self):
        async def scenario(runtime):
            fired = []
            handle = runtime.start_timer(1.0, lambda: fired.append(1))
            runtime.cancel_timer(handle)
            runtime.cancel_timer(handle)  # idempotent
            runtime.cancel_timer(None)  # None-safe
            assert not handle.armed
            await asyncio.sleep(0.05)
            return fired

        assert run(scenario, seed=0, time_scale=0.01) == []

    def test_call_soon_runs_on_the_loop(self):
        async def scenario(runtime):
            seen = []
            runtime.call_soon(seen.append, "x")
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            return seen

        assert run(scenario, seed=0) == ["x"]


class TestPeriodic:
    def test_created_stopped_ticks_after_start_stops_cleanly(self):
        async def scenario(runtime):
            ticks = []
            task = runtime.start_periodic(0.5, lambda: ticks.append(1),
                                          name="unit")
            assert not task.running
            await asyncio.sleep(0.02)
            assert ticks == []  # unstarted tasks never tick
            task.start()
            await asyncio.sleep(0.06)  # ~12 periods of wall time
            task.stop()
            assert not task.running
            count_at_stop = len(ticks)
            await asyncio.sleep(0.03)
            return ticks, count_at_stop

        ticks, count_at_stop = run(scenario, seed=0, time_scale=0.01)
        assert len(ticks) >= 2  # several ticks while running
        assert len(ticks) == count_at_stop  # none after stop()

    def test_rejects_bad_period_and_jitter(self):
        runtime = AsyncioRuntime(seed=0)
        with pytest.raises(ValueError):
            runtime.start_periodic(0.0, lambda: None)
        with pytest.raises(ValueError):
            runtime.start_periodic(1.0, lambda: None, jitter=1.0)


class TestCallbackFailures:
    def test_raising_timer_is_kept_and_the_loop_goes_on(self):
        async def scenario(runtime):
            fired = []
            runtime.start_timer(0.5, lambda: 1 / 0)
            runtime.start_timer(1.0, lambda: fired.append(1))
            await asyncio.sleep(0.05)
            return runtime, fired

        runtime, fired = run(scenario, seed=0, time_scale=0.01)
        assert fired == [1]
        assert isinstance(runtime.failure, ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            runtime.raise_failure()

    def test_raising_periodic_stops_and_reads_stopped(self):
        async def scenario(runtime):
            ticks = []

            def tick():
                ticks.append(1)
                if len(ticks) == 2:
                    raise ValueError("second tick")

            task = runtime.start_periodic(0.5, tick).start()
            await asyncio.sleep(0.06)
            return runtime, task, ticks

        runtime, task, ticks = run(scenario, seed=0, time_scale=0.01)
        assert ticks == [1, 1]
        assert not task.running
        assert str(runtime.failure) == "second tick"


class TestObservability:
    def test_trace_and_metrics_share_the_protocol_clock(self):
        runtime = AsyncioRuntime(seed=0, time_scale=0.5)
        runtime.trace("unit.kind", "src", detail=1)
        records = runtime.trace_sink.records(kind="unit.kind")
        assert len(records) == 1
        assert records[0].time == pytest.approx(runtime.now(), abs=1.0)
        runtime.counter("unit.counter").inc()
        assert runtime.metrics.counter("unit.counter").value == 1

    def test_trace_false_retains_nothing(self):
        runtime = AsyncioRuntime(seed=0, trace=False)
        runtime.trace("unit.kind", "src")
        assert runtime.trace_sink.records(kind="unit.kind") == []

    def test_rng_streams_match_the_sim_registry(self):
        # Seed-matched UDP and sim runs draw identical jitter sequences.
        runtime = AsyncioRuntime(seed=21)
        sim = Simulator(seed=21)
        assert [runtime.rng("host.h0.0.attach_backoff").random()
                for _ in range(4)] == \
               [sim.rng.stream("host.h0.0.attach_backoff").random()
                for _ in range(4)]
