"""Measurement and reporting over simulation metrics and traces."""

from .cost import (
    CostReport,
    CounterSnapshot,
    cost_report,
    optimal_inter_cluster_cost,
)
from .delay import DelayStats, delay_stats, system_delay_stats
from .reliability import (
    RecoveryLocality,
    delivery_fraction,
    recovery_locality,
    time_to_full_delivery,
)
from .export import metrics_snapshot, metrics_to_json, trace_to_jsonl
from .report import Table
from .stats import Summary, aggregate_rows, summarize, t_critical_95
from .viz import render_cluster_view, render_parent_graph, render_topology
from .traffic import (
    CongestionReport,
    TrafficReport,
    congestion_report,
    link_transmissions,
    traffic_report,
)

__all__ = [
    "CongestionReport",
    "CostReport",
    "CounterSnapshot",
    "DelayStats",
    "RecoveryLocality",
    "Summary",
    "Table",
    "aggregate_rows",
    "TrafficReport",
    "congestion_report",
    "cost_report",
    "delay_stats",
    "delivery_fraction",
    "link_transmissions",
    "metrics_snapshot",
    "metrics_to_json",
    "optimal_inter_cluster_cost",
    "recovery_locality",
    "render_cluster_view",
    "render_parent_graph",
    "render_topology",
    "summarize",
    "system_delay_stats",
    "t_critical_95",
    "time_to_full_delivery",
    "trace_to_jsonl",
    "traffic_report",
]
