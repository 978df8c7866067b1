"""Run one workload and turn its cells into the declared metrics.

A run is a sequence of cells, round-robin over the workload's pinned
scenario seeds (one pass = one *cycle*), after one unmeasured reduced-size cell that
absorbs imports and lazy set-up.

* ``trace=0`` repeats cycles until the time budget is spent (at least
  two, so every cell has a repeat to be compared with) and reports
  the end-to-end metrics, measured with no profiler installed.
* ``trace=1`` runs one plain cycle (counters, reference wall time), one
  cycle under the benchmark's profiler (per-layer self time and calls)
  and the layer drivers, and reports the per-layer metrics.

Timed metrics are medians over the repeats: every cell is represented
by its median repeat (by wall time; the faster of the middle two when
the count is even — a run may have only two, and what disturbs a repeat
on a shared box is a stall of seconds far more often than a speed-up).
Throughput and the pooled latency quantiles are computed over those
representatives; ``setup_s`` is the median over all cells.  Every
per-cell value is kept in the run's detail record.

Simulated cells must repeat exactly: repeats of one cell that differ
in delivery signature, event count or counters — between repeats, or
between the plain and the profiled cycle — make the run incorrect.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import attribution, drivers
from .layers import LAYER_NAMES
from .workloads import SCENARIO_SEEDS, WORKLOADS, Cell, Size, Workload, cell_inputs

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DEFAULT_SEED = 11

#: counters whose increments are summed into ``chaos.packets.injected``
_INJECTED = tuple(f"chaos.packet.{kind}" for kind in (
    "dropped", "corrupted", "duplicated", "replayed", "delayed"))


def load_declaration() -> Dict[str, Any]:
    return json.loads(DECLARATION.read_text(encoding="utf-8"))


def _cycle(workload: Workload, size: Size, seed: int,
           profiler: Optional[cProfile.Profile] = None) -> List[Cell]:
    return [cell for index in range(size.cells) for cell in workload.run_cell(
        size, SCENARIO_SEEDS[index],
        cell_inputs(seed, workload.name, index, size.messages * size.segments),
        profiler)]


def _percentiles(latencies_ms: Sequence[float]) -> Tuple[float, float]:
    if len(latencies_ms) < 2:
        return (0.0, 0.0)
    cuts = statistics.quantiles(latencies_ms, n=100)
    return cuts[49], cuts[98]


def _ratio(numerator: float, denominator: float) -> float:
    """Ratios with a zero base read 0."""
    return numerator / denominator if denominator else 0.0


def _determinism_problems(cycles: List[List[Cell]]) -> List[str]:
    """Repeats of one cell whose signatures differ (UDP cells have none)."""
    return [f"cell {index}: repeats of one simulated cell differ "
            f"(signature, events or counters)"
            for index, repeats in enumerate(zip(*cycles))
            if len({cell.signature for cell in repeats}) > 1]


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        rss /= 1024
    return rss / 1024.0


# ----------------------------------------------------------------------
# trace = 0: end-to-end metrics
# ----------------------------------------------------------------------


def _end_to_end(cycles: List[List[Cell]]) -> Dict[str, float]:
    # Each cell is represented by its median repeat, by wall time.
    typical = [sorted(repeats, key=lambda cell: cell.wall_s)[(len(repeats) - 1) // 2]
               for repeats in zip(*cycles)]
    p50, p99 = _percentiles([ms for cell in typical for ms in cell.latencies_ms])
    return {
        "setup_s": statistics.median(
            cell.setup_s for cycle in cycles for cell in cycle),
        "deliveries_per_s": _ratio(
            sum(cell.attempted - cell.failed for cell in typical),
            sum(cell.wall_s for cell in typical)),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# trace = 1: per-layer metrics
# ----------------------------------------------------------------------


def _counter_metrics(cells: Sequence[Cell]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for cell in cells:
        for name, value in cell.counters.items():
            total[name] = total.get(name, 0.0) + value

    def extra(key: str) -> float:
        return sum(cell.extra.get(key, 0.0) for cell in cells)

    get = lambda name: total.get(name, 0.0)  # noqa: E731
    delivered = sum(cell.attempted - cell.failed for cell in cells)
    messages = sum(cell.messages for cell in cells)
    events = sum(cell.events for cell in cells)
    wall = sum(cell.wall_s for cell in cells)
    drops = sum(value for name, value in total.items()
                if name.startswith("net.drop.")
                and not name.startswith("net.drop.overflow.link."))
    return {
        "sim.kernel.run_events_per_s": _ratio(events, wall),
        "sim.kernel.events_per_delivery": _ratio(events, delivered),
        "net.h2h.sent_per_delivery": _ratio(get("net.h2h.sent"), delivered),
        "net.h2h.control_share": _ratio(get("net.h2h.sent.kind.control"),
                                        get("net.h2h.sent")),
        "net.h2h.inter_cluster_per_msg": _ratio(
            get("net.h2h.recv.expensive.kind.data"), messages),
        "net.link.drops_per_delivery": _ratio(drops, delivered),
        "core.host.forward_ratio": _ratio(get("proto.data.forwarded"),
                                          get("proto.deliver")),
        "core.host.gapfill_per_delivery": _ratio(get("proto.gapfill.sent"),
                                                 delivered),
        "core.host.duplicate_discards": get("proto.data.discard.duplicate"),
        "core.attachment.requests": get("proto.attach.requests"),
        "core.attachment.success_ratio": _ratio(get("proto.attach.success"),
                                                get("proto.attach.requests")),
        "core.wire.corrupt_dropped": get("proto.wire.corrupt_dropped"),
        "core.wire.dup_suppressed": get("proto.wire.dup_suppressed"),
        "chaos.packets.injected": sum(get(name) for name in _INJECTED),
        "chaos.heal_to_delivered_s": _ratio(extra("heal_to_delivered_s"),
                                            len(cells)),
        "verify.monitor.samples": extra("monitor_samples"),
        "verify.monitor.transient_violations": extra("transient_violations"),
        "verify.monitor.stable_violations": extra("stable_violations"),
        "io.udp.send_retry": get("net.h2h.send_retry"),
        "io.udp.send_dropped": get("net.h2h.send_dropped"),
        "io.udp.recv_shed": get("net.h2h.recv_shed"),
        "io.udp.malformed": get("net.h2h.malformed"),
    }


def _profile_metrics(profiler: cProfile.Profile, delivered: int,
                     detail: Dict[str, Any]) -> Dict[str, float]:
    costs = attribution.layer_costs(profiler)
    metrics: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        seconds, calls = costs.get(layer, (0.0, 0))
        metrics[f"{layer}.self_us_per_delivery"] = _ratio(seconds * 1e6, delivered)
        metrics[f"{layer}.calls_per_delivery"] = _ratio(calls, delivered)
    in_repo = sum(seconds for layer, (seconds, _) in costs.items()
                  if layer not in ("python", "bench"))
    stray = sum(costs.get(layer, (0.0, 0))[0] for layer in ("other", "unmapped"))
    detail["layer_self_s"] = {layer: seconds
                              for layer, (seconds, _) in sorted(costs.items())}
    detail["unattributed_share"] = _ratio(stray, in_repo)
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _cell_record(cycle: int, index: int, cell: Cell) -> Dict[str, Any]:
    p50, p99 = _percentiles(cell.latencies_ms)
    return {"cycle": cycle, "cell": index, "setup_s": cell.setup_s,
            "wall_s": cell.wall_s, "attempted": cell.attempted,
            "failed": cell.failed, "events": cell.events,
            "deliveries_per_s": _ratio(cell.attempted - cell.failed, cell.wall_s),
            "latency_p50_ms": p50, "latency_p99_ms": p99,
            "latency_samples": len(cell.latencies_ms),
            "signature": cell.signature}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run workload ``name``; returns ``(detail, result)``.

    ``result`` is the contract object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``detail`` carries the per-cell values and
    the attribution behind it.
    """
    declaration = load_declaration()
    workload = WORKLOADS[name]
    size = workload.quick if quick else workload.full
    if not quick:
        # The unmeasured cell: full topology (socket and host counts decide
        # what gets imported and allocated), a quarter of the messages.
        _cycle(workload, dataclasses.replace(
            size, cells=1, messages=max(1, size.messages // 4), segments=1,
            time_scale=workload.quick.time_scale), seed)

    detail: Dict[str, Any] = {"workload": name, "seed": seed, "quick": quick,
                              "trace": int(trace)}
    cycles: List[List[Cell]] = []
    if trace:
        cycles.append(_cycle(workload, size, seed))
        profiler = cProfile.Profile()
        cycles.append(_cycle(workload, size, seed, profiler))
        plain, profiled = cycles
        metrics = _counter_metrics(plain)
        metrics.update(_profile_metrics(
            profiler, sum(c.attempted - c.failed for c in profiled), detail))
        metrics["trace_overhead_x"] = _ratio(
            sum(c.wall_s for c in profiled), sum(c.wall_s for c in plain))
        metrics.update(drivers.run_all(0.0 if quick else seconds / 100.0))
        declared = declaration["per_layer"]
    else:
        started = perf_counter()
        while True:
            cycles.append(_cycle(workload, size, seed))
            if quick or (len(cycles) >= 2
                         and perf_counter() - started >= seconds):
                break
        metrics = _end_to_end(cycles)
        declared = declaration["end_to_end"]

    problems = [problem for cycle in cycles for cell in cycle
                for problem in cell.problems]
    problems += _determinism_problems(cycles)
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        problems.append("measured metrics differ from BENCHMARK.json: "
                        + ", ".join(sorted(set(metrics) ^ set(units))))
    attempted = sum(cell.attempted for cycle in cycles for cell in cycle)
    failed = sum(cell.failed for cycle in cycles for cell in cycle)
    detail["cells"] = [_cell_record(k, g, cell)
                       for k, cycle in enumerate(cycles)
                       for g, cell in enumerate(cycle)]
    detail["latency_samples"] = sum(len(c.latencies_ms) for c in cycles[0])
    detail["problems"] = problems
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units.get(metric, "")}
                    for metric, value in metrics.items()},
    }
    return detail, result
