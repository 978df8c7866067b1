"""Export traces and metrics for offline analysis.

Simulation runs can be dumped as JSON(L) so results feed into external
tooling (plotting, regression tracking) without re-running anything.
Everything here is stdlib-only.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..sim import Simulator

PathLike = Union[str, Path]


def _jsonable(value: Any) -> Any:
    """Coerce trace field values to something JSON can carry."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def trace_to_jsonl(sim: Simulator, path: PathLike,
                   kind_prefix: str = "") -> int:
    """Write trace records (optionally filtered by kind prefix) as JSONL.

    Returns the number of records written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as out:
        for record in sim.trace.records(kind=kind_prefix or None):
            out.write(json.dumps({
                "time": record.time,
                "kind": record.kind,
                "source": record.source,
                **{k: _jsonable(v) for k, v in record.fields.items()},
            }))
            out.write("\n")
            count += 1
    return count


def metrics_snapshot(sim: Simulator) -> Dict[str, Any]:
    """All counters plus summary stats of every histogram."""
    snapshot: Dict[str, Any] = {"counters": sim.metrics.counters()}
    histograms = {}
    for name, histogram in sim.metrics.histograms().items():
        if histogram.count == 0:
            continue
        histograms[name] = {
            "count": histogram.count,
            "mean": histogram.mean,
            "p50": histogram.quantile(0.5),
            "p99": histogram.quantile(0.99),
            "max": histogram.max,
        }
    snapshot["histograms"] = histograms
    return snapshot


def metrics_to_json(sim: Simulator, path: PathLike,
                    extra: Optional[Dict[str, Any]] = None) -> None:
    """Write the metrics snapshot (plus caller metadata) as one JSON file."""
    payload = metrics_snapshot(sim)
    if extra:
        payload["meta"] = _jsonable(extra)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
