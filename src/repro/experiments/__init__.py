"""Experiment harness: runners for every table/figure in DESIGN.md.

Each runner registers itself in :data:`REGISTRY`
(:mod:`repro.experiments.registry`) and runs from
``python -m repro experiments``.  :func:`deploy` turns a protocol name
into a started system.  The runners accept an optional executor from
:mod:`repro.exec` to fan their grids out over worker processes with
bit-identical results.
"""

from .records import ExperimentResult
from .registry import REGISTRY, ExperimentSpec, get_spec, run_registered
from .runners import (
    PROTOCOLS,
    SWEEP_DATA_BITS,
    deploy,
    run_e1_cost,
    run_e2_delay,
    run_e3_recovery,
    run_e4_partition,
    run_e5_congestion,
    run_e6_control,
    run_e6_tuning,
    run_e7_tradeoff,
    run_e8_fig31,
    run_e9_fig41,
    run_e10_ablation,
    run_e11_fig32,
    run_e12_epidemic,
    run_e13_piggyback,
    run_e14_multisource,
    run_e15_load_adaptation,
    run_e16_clock_skew,
    run_e17_design_ablation,
    run_e18_relative_reliability,
    run_e19_hierarchical,
    run_e20_host_churn,
    run_e21_adversarial_timing,
    run_e22_parallel_speedup,
    run_e23_fuzz_campaign,
    run_e24_adversary_containment,
    run_e25_saturation,
)
from .saturation import (
    ARRIVAL_SHAPES,
    CountingSource,
    SloSpec,
    arrival_times,
    measure_capacity,
    schedule_open_loop,
)

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "ExperimentSpec",
    "get_spec",
    "run_registered",
    "PROTOCOLS",
    "SWEEP_DATA_BITS",
    "deploy",
    "ARRIVAL_SHAPES",
    "CountingSource",
    "SloSpec",
    "arrival_times",
    "measure_capacity",
    "schedule_open_loop",
    "run_e1_cost",
    "run_e2_delay",
    "run_e3_recovery",
    "run_e4_partition",
    "run_e5_congestion",
    "run_e6_control",
    "run_e6_tuning",
    "run_e7_tradeoff",
    "run_e8_fig31",
    "run_e9_fig41",
    "run_e10_ablation",
    "run_e11_fig32",
    "run_e12_epidemic",
    "run_e13_piggyback",
    "run_e14_multisource",
    "run_e15_load_adaptation",
    "run_e16_clock_skew",
    "run_e17_design_ablation",
    "run_e18_relative_reliability",
    "run_e19_hierarchical",
    "run_e20_host_churn",
    "run_e21_adversarial_timing",
    "run_e22_parallel_speedup",
    "run_e23_fuzz_campaign",
    "run_e24_adversary_containment",
    "run_e25_saturation",
]
