"""Layer drivers: each layer's public functions timed in isolation.

A driver builds the smallest state its layer needs, then times only
calls into that layer's public functions.  Every driver returns
``{metric name: value}``; the unit of each metric is its name's suffix
(``_ns``, ``_us``, ``_ms``, ``_per_s``, ``_bytes``).  Values are medians
over as many rounds as fit the time budget (at least three; a budget of
zero means a single round, for smoke runs).
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List

MIN_ROUNDS = 3


def per_op(budget_s: float, make: Callable[[], Any],
           run: Callable[[Any], Any], ops: int) -> float:
    """Median seconds per operation.

    ``make()`` builds fresh state (untimed); ``run(state)`` performs
    ``ops`` operations (timed).  Rounds repeat until ``budget_s`` is
    spent.
    """
    samples: List[float] = []
    deadline = perf_counter() + budget_s
    rounds = MIN_ROUNDS if budget_s > 0 else 1
    while len(samples) < rounds or perf_counter() < deadline:
        state = make()
        started = perf_counter()
        run(state)
        samples.append((perf_counter() - started) / ops)
    return statistics.median(samples)


def run_all(budget_s: float) -> Dict[str, float]:
    """Run every driver, giving each timed metric ``budget_s`` seconds."""
    from . import kernel, network, protocol, sockets

    metrics: Dict[str, float] = {}
    for module in (kernel, network, protocol, sockets):
        for driver in module.DRIVERS:
            metrics.update(driver(budget_s))
    return metrics
