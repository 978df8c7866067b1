"""Delivery-delay statistics (Section 5's delay comparison)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.delivery import DeliveryRecord
from ..net import HostId


@dataclass(frozen=True)
class DelayStats:
    """Summary of end-to-end delivery delays."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    max: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for serialization and reporting."""
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99, "p999": self.p999,
                "max": self.max}


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    low = int(math.floor(pos))
    high = int(math.ceil(pos))
    low_val, high_val = sorted_values[low], sorted_values[high]
    if low == high or low_val == high_val:
        return low_val
    frac = pos - low
    return low_val + frac * (high_val - low_val)


def delay_stats(delays: Iterable[float]) -> DelayStats:
    """Summarize a collection of delays."""
    values = sorted(delays)
    if not values:
        return DelayStats(0, math.nan, math.nan, math.nan, math.nan,
                          math.nan, math.nan)
    return DelayStats(
        count=len(values),
        mean=sum(values) / len(values),
        p50=_quantile(values, 0.50),
        p95=_quantile(values, 0.95),
        p99=_quantile(values, 0.99),
        p999=_quantile(values, 0.999),
        max=values[-1],
    )


def system_delay_stats(
    records_by_host: Dict[HostId, List[DeliveryRecord]],
    source: HostId,
    since_seq: int = 0,
    upto_seq: Optional[int] = None,
) -> DelayStats:
    """Delays across all non-source hosts, of seqs in (since_seq, upto_seq].

    The source's own "deliveries" are instantaneous by construction and
    would bias the statistics, so they are excluded.  ``upto_seq`` (no
    bound by default) lets an open-loop run score only the messages
    admitted during its measured window, so late admissions stay out
    of the tail.
    """
    delays: List[float] = []
    for host_id, records in records_by_host.items():
        if host_id == source:
            continue
        delays.extend(r.delay for r in records
                      if r.seq > since_seq
                      and (upto_seq is None or r.seq <= upto_seq))
    return delay_stats(delays)
