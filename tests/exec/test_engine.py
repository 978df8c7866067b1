"""The execution engine: ordered merge, failures, timeouts, seeds."""

import multiprocessing
import os
import time
from collections.abc import Mapping

import pytest

from repro.exec import (
    ExecutionError,
    ProcessExecutor,
    SerialExecutor,
    WorkItem,
    canonical_key,
    derive_seed,
    make_executor,
    values_or_raise,
)


# Work functions must be module-level so they pickle by reference.

def square(x, seed=None):
    return {"x": x, "sq": x * x, "seed": seed}


def slow_square(x, seed=None):
    # Later items finish first: exposes completion-order merge bugs.
    time.sleep(0.3 if x == 0 else 0.01)
    return x * x


def explode(x):
    raise ValueError(f"bad point {x}")


def hang(x):
    time.sleep(30)
    return x


def die_hard(x):
    os._exit(7)


def nested_squares(xs):
    items = [WorkItem(key=("inner", x), fn=slow_square, kwargs={"x": x})
             for x in xs]
    return values_or_raise(ProcessExecutor(jobs=2).map(items))


def derived_in_worker():
    return derive_seed(42, "E2", ("k", 2))


class UnreadableKwargs(Mapping):
    """Kwargs that fail when the executor copies them for launch."""

    def __getitem__(self, name):
        raise RuntimeError("unreadable kwargs")

    def __iter__(self):
        return iter(("x",))

    def __len__(self):
        return 1


def items_for(fn, xs, **extra):
    return [WorkItem(key=(fn.__name__, x), fn=fn, kwargs=dict(x=x, **extra))
            for x in xs]


class TestSerialExecutor:
    def test_values_in_submission_order(self):
        outcomes = SerialExecutor().map(items_for(square, [3, 1, 2]))
        assert [o.value["sq"] for o in outcomes] == [9, 1, 4]
        assert all(o.ok for o in outcomes)
        assert [o.key for o in outcomes] == [("square", 3), ("square", 1),
                                             ("square", 2)]

    def test_exception_is_captured_not_raised(self):
        (outcome,) = SerialExecutor().map(items_for(explode, [5]))
        assert not outcome.ok
        assert outcome.failure.kind == "exception"
        assert outcome.failure.exc_type == "ValueError"
        assert "bad point 5" in outcome.failure.message
        assert "explode" in outcome.failure.traceback


class TestProcessExecutor:
    def test_matches_serial_and_preserves_order(self):
        items = items_for(slow_square, [0, 1, 2, 3])
        serial = SerialExecutor().map(items)
        parallel = ProcessExecutor(jobs=4).map(items)
        assert [o.value for o in parallel] == [o.value for o in serial]
        assert [o.key for o in parallel] == [o.key for o in serial]

    def test_worker_exception_captured_per_item(self):
        items = items_for(square, [1], seed=None) + items_for(explode, [9])
        outcomes = ProcessExecutor(jobs=2).map(items)
        assert outcomes[0].ok and outcomes[0].value["sq"] == 1
        assert not outcomes[1].ok
        assert outcomes[1].failure.kind == "exception"
        assert "bad point 9" in outcomes[1].failure.message

    def test_worker_crash_captured_as_structured_failure(self):
        items = items_for(die_hard, [1]) + items_for(square, [2], seed=None)
        outcomes = ProcessExecutor(jobs=2).map(items)
        assert not outcomes[0].ok
        assert outcomes[0].failure.kind == "crash"
        assert "7" in outcomes[0].failure.message
        # The crash did not poison the batch.
        assert outcomes[1].ok and outcomes[1].value["sq"] == 4

    def test_timeout_kills_worker_and_is_captured(self):
        items = items_for(hang, [1]) + items_for(square, [3], seed=None)
        start = time.monotonic()
        outcomes = ProcessExecutor(jobs=2, timeout=1.0).map(items)
        assert time.monotonic() - start < 15
        assert not outcomes[0].ok
        assert outcomes[0].failure.kind == "timeout"
        assert outcomes[1].ok

    def test_running_workers_are_killed_when_map_raises(self):
        # The first worker is running when launching the second raises;
        # map must not leave it behind.
        items = items_for(hang, [1]) + [
            WorkItem(key=("bad",), fn=square, kwargs=UnreadableKwargs())]
        with pytest.raises(RuntimeError, match="unreadable kwargs"):
            ProcessExecutor(jobs=2).map(items)
        assert multiprocessing.active_children() == []

    def test_an_item_may_fan_out_over_its_own_executor(self):
        # Workers are not daemonic, so a nested executor can start its
        # own processes (E22 does, under `experiments --jobs N`).
        nested = WorkItem(key=("nested",), fn=nested_squares,
                          kwargs={"xs": (2, 3)})
        (outcome,) = ProcessExecutor(jobs=1).map([nested])
        assert outcome.ok, outcome.failure
        assert outcome.value == [4, 9]

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ProcessExecutor(jobs=0)


class TestHelpers:
    def test_values_or_raise_lists_offending_keys(self):
        outcomes = SerialExecutor().map(
            items_for(square, [1], seed=None) + items_for(explode, [2]))
        with pytest.raises(ExecutionError) as err:
            values_or_raise(outcomes)
        assert "('explode', 2)" in str(err.value)
        assert len(err.value.failed) == 1

    def test_make_executor_picks_by_jobs(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ProcessExecutor)
        assert make_executor(3).jobs == 3


class TestSeeds:
    def test_stable_across_calls_and_processes(self):
        local = derive_seed(42, "E2", ("k", 2))
        assert derive_seed(42, "E2", ("k", 2)) == local
        item = WorkItem(key=("probe",), fn=derived_in_worker)
        (outcome,) = ProcessExecutor(jobs=1).map([item])
        assert outcome.value == local

    def test_distinct_components_distinct_seeds(self):
        seeds = {derive_seed(1, "E2", i) for i in range(50)}
        assert len(seeds) == 50

    def test_base_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_canonical_key_sorts_dicts(self):
        assert canonical_key({"b": 1, "a": 2}) == canonical_key({"a": 2, "b": 1})
