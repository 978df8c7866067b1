"""Process-pool execution engine with deterministic fan-out.

The engine runs independent simulation work items (grid points, seed
replicas, whole experiments) either in-process (:class:`SerialExecutor`)
or across ``multiprocessing`` workers (:class:`ProcessExecutor`), under
three invariants that make parallel execution *bit-identical* to serial
execution (DESIGN.md §10):

1. **Self-contained items.**  A :class:`WorkItem` carries a picklable
   module-level callable plus its kwargs (a derived seed travels as
   one of them); the simulation is built *inside* the worker, so no
   state leaks between items or from the parent process.
2. **Ordered merge.**  ``map()`` returns outcomes in submission order,
   regardless of completion order.
3. **Structured failure.**  A worker that raises, hangs past its
   timeout, or dies outright yields an :class:`ItemOutcome` with a
   typed :class:`ItemFailure` — one bad grid point never aborts the
   batch, and the failure names the offending item.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from queue import Empty
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)


@dataclass(frozen=True)
class WorkItem:
    """One independent unit of work.

    ``key`` is the item's canonical identity: it names the item in
    failure reports and cache entries and must be unique within a
    batch.
    """

    key: Tuple[Any, ...]
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ItemFailure:
    """Why a work item produced no value."""

    kind: str  #: ``"exception"`` | ``"timeout"`` | ``"crash"``
    exc_type: str = ""
    message: str = ""
    traceback: str = ""

    def describe(self) -> str:
        if self.kind == "exception":
            return f"{self.exc_type}: {self.message}"
        return f"{self.kind}: {self.message}" if self.message else self.kind


@dataclass
class ItemOutcome:
    """One item's result: a value, or a structured failure."""

    key: Tuple[Any, ...]
    ok: bool
    value: Any = None
    failure: Optional[ItemFailure] = None
    wall_s: float = 0.0
    cached: bool = False


class Executor(Protocol):
    """What runners need from an executor: ordered ``map`` plus ``jobs``."""

    jobs: int

    def map(self, items: Sequence[WorkItem]) -> List[ItemOutcome]:
        ...


class ExecutionError(RuntimeError):
    """Raised by :func:`values_or_raise` when any item failed."""

    def __init__(self, failed: Sequence[ItemOutcome]):
        self.failed = list(failed)
        lines = [f"{len(self.failed)} work item(s) failed:"]
        for outcome in self.failed:
            assert outcome.failure is not None
            lines.append(f"  {outcome.key!r}: {outcome.failure.describe()}")
        super().__init__("\n".join(lines))


def values_or_raise(outcomes: Sequence[ItemOutcome]) -> List[Any]:
    """Unwrap outcome values, raising :class:`ExecutionError` on failure."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise ExecutionError(failed)
    return [o.value for o in outcomes]


def _run_item(fn: Callable[..., Any], kwargs: Dict[str, Any]
              ) -> Tuple[str, Any, float]:
    """Shared invoke-and-classify used by both executors."""
    start = time.perf_counter()
    try:
        value = fn(**kwargs)
    except Exception as exc:  # noqa: BLE001 - structured capture is the point
        wall = time.perf_counter() - start
        failure = ItemFailure(kind="exception", exc_type=type(exc).__name__,
                              message=str(exc),
                              traceback=traceback.format_exc())
        return "fail", failure, wall
    return "ok", value, time.perf_counter() - start


class SerialExecutor:
    """Runs every item in-process, in submission order.

    This is the reference implementation the parallel path must match
    row-for-row; it is also the default everywhere, so single-job runs
    pay no multiprocessing overhead at all.
    """

    jobs = 1

    def map(self, items: Sequence[WorkItem]) -> List[ItemOutcome]:
        outcomes: List[ItemOutcome] = []
        for item in items:
            tag, payload, wall = _run_item(item.fn, dict(item.kwargs))
            if tag == "ok":
                outcomes.append(ItemOutcome(item.key, True, value=payload,
                                            wall_s=wall))
            else:
                outcomes.append(ItemOutcome(item.key, False, failure=payload,
                                            wall_s=wall))
        return outcomes


def _worker_main(queue: Any, idx: int, fn: Callable[..., Any],
                 kwargs: Dict[str, Any]) -> None:
    """Worker process entry point: run one item, report one message."""
    tag, payload, wall = _run_item(fn, kwargs)
    if tag == "ok":
        try:
            queue.put((idx, "ok", payload, wall))
            return
        except Exception as exc:  # unpicklable result: report, don't hang
            payload = ItemFailure(
                kind="exception", exc_type=type(exc).__name__,
                message=f"result not picklable: {exc}",
                traceback=traceback.format_exc())
    queue.put((idx, "fail", payload, wall))


class ProcessExecutor:
    """Fans items out over worker processes, one process per item.

    A fresh process per item (bounded to ``jobs`` concurrent workers)
    keeps items hermetic, lets a timeout actually *kill* the offender,
    and turns an abnormal worker death (segfault, ``os._exit``, OOM
    kill) into a ``"crash"`` failure for exactly that item.  Results
    are merged in submission order.

    Workers are not daemonic, so an item may fan out over an executor
    of its own (E22 does, inside ``experiments --jobs N``).  Instead,
    ``map`` kills every worker still running when it raises or is
    interrupted.
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 start_method: Optional[str] = None):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.timeout = timeout
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else available[0]
        self._ctx = multiprocessing.get_context(start_method)

    def map(self, items: Sequence[WorkItem]) -> List[ItemOutcome]:
        items = list(items)
        queue = self._ctx.Queue()
        outcomes: List[Optional[ItemOutcome]] = [None] * len(items)
        pending = deque(enumerate(items))
        #: idx -> (process, deadline or None)
        running: Dict[int, Tuple[Any, Optional[float]]] = {}
        reported: Dict[int, Tuple[str, Any, float]] = {}

        def launch() -> None:
            while pending and len(running) < self.jobs:
                idx, item = pending.popleft()
                process = self._ctx.Process(
                    target=_worker_main,
                    args=(queue, idx, item.fn, dict(item.kwargs)))
                process.start()
                deadline = (time.monotonic() + self.timeout
                            if self.timeout is not None else None)
                running[idx] = (process, deadline)

        def drain(block_s: float) -> None:
            try:
                idx, tag, payload, wall = queue.get(timeout=block_s)
            except Empty:
                return
            while True:
                reported[idx] = (tag, payload, wall)
                try:
                    idx, tag, payload, wall = queue.get_nowait()
                except Empty:
                    return

        try:
            launch()
            while running:
                drain(0.02)
                now = time.monotonic()
                for idx in list(running):
                    process, deadline = running[idx]
                    key = items[idx].key
                    if idx in reported:
                        tag, payload, wall = reported.pop(idx)
                        process.join()
                        if tag == "ok":
                            outcomes[idx] = ItemOutcome(
                                key, True, value=payload, wall_s=wall)
                        else:
                            outcomes[idx] = ItemOutcome(
                                key, False, failure=payload, wall_s=wall)
                    elif not process.is_alive():
                        # Died without reporting: give the queue feeder
                        # one last chance, then classify as a crash.
                        drain(0.05)
                        if idx in reported:
                            continue  # handled on the next pass
                        process.join()
                        outcomes[idx] = ItemOutcome(
                            key, False, failure=ItemFailure(
                                kind="crash",
                                message=f"worker exited with code "
                                        f"{process.exitcode} before "
                                        "reporting a result"))
                    elif deadline is not None and now > deadline:
                        process.terminate()
                        process.join()
                        outcomes[idx] = ItemOutcome(
                            key, False, failure=ItemFailure(
                                kind="timeout",
                                message=f"exceeded {self.timeout:.1f}s; "
                                        "worker killed"),
                            wall_s=self.timeout or 0.0)
                    else:
                        continue
                    running.pop(idx)
                    launch()
        finally:
            # Reached with workers still running only when map raised
            # or was interrupted: they must not outlive it.
            for process, _ in running.values():
                process.terminate()
                process.join()
            queue.close()
            queue.join_thread()
        return [o for o in outcomes if o is not None]


def make_executor(jobs: Optional[int] = None,
                  timeout: Optional[float] = None
                  ) -> "SerialExecutor | ProcessExecutor":
    """``jobs <= 1`` (or ``None``) → serial; otherwise a process pool."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs=jobs, timeout=timeout)
