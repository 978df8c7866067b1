"""Declarative experiment registry: one :class:`ExperimentSpec` per table.

A spec knows its runner, its typed default parameters (introspected
from the runner's signature), which parameter carries the RNG seed, and
whether the runner accepts an :class:`~repro.exec.Executor` for intra-experiment
fan-out.  Seed threading is *normalized* here: ``spec.run(seed=...)``
always lands on the right parameter, and registering a runner whose
signature cannot accept its declared seed parameter fails loudly at
import time instead of silently dropping ``--seed``.  Every
``run_eN_*`` function is also importable from :mod:`repro.experiments`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..exec import Executor
from .records import ExperimentResult
from .runners import (
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

RunnerFn = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: id, title, runner, and normalized parameters."""

    id: str
    runner: RunnerFn
    title: str
    seed_param: str = "seed"
    #: typed default parameters, introspected from the runner signature
    defaults: Mapping[str, Any] = field(default_factory=dict)
    accepts_executor: bool = False

    @classmethod
    def from_runner(cls, exp_id: str, runner: RunnerFn,
                    seed_param: str = "seed",
                    title: Optional[str] = None) -> "ExperimentSpec":
        """Build a spec by introspecting ``runner``'s signature."""
        signature = inspect.signature(runner)
        if seed_param not in signature.parameters:
            raise ValueError(
                f"{exp_id}: runner {runner.__name__} has no parameter "
                f"{seed_param!r} to thread the seed through")
        defaults = {
            name: parameter.default
            for name, parameter in signature.parameters.items()
            if parameter.default is not inspect.Parameter.empty
            and name != "executor"
        }
        if title is None:
            doc = (runner.__doc__ or "").strip()
            title = doc.splitlines()[0].rstrip(".") if doc else exp_id
        return cls(id=exp_id, runner=runner, title=title,
                   seed_param=seed_param, defaults=defaults,
                   accepts_executor="executor" in signature.parameters)

    @property
    def default_seed(self) -> Optional[int]:
        value = self.defaults.get(self.seed_param)
        return value if isinstance(value, int) else None

    def run(self, seed: Optional[int] = None,
            executor: Optional[Executor] = None,
            **overrides: Any) -> ExperimentResult:
        """Run the experiment with normalized seed/executor threading.

        ``seed`` always lands on :attr:`seed_param`, whatever the
        runner calls it.  ``executor`` is forwarded only to runners
        that fan out internally; passing it to a purely serial runner
        is silently a no-op rather than a ``TypeError``, so callers
        can thread one executor through a heterogeneous batch.
        """
        kwargs = dict(overrides)
        if seed is not None:
            kwargs[self.seed_param] = seed
        if executor is not None and self.accepts_executor:
            kwargs["executor"] = executor
        return self.runner(**kwargs)

    def cache_params(self, seed: Optional[int] = None,
                     **overrides: Any) -> Dict[str, Any]:
        """The fully-resolved parameter mapping that keys a cache entry."""
        params = dict(self.defaults)
        params.update(overrides)
        if seed is not None:
            params[self.seed_param] = seed
        return params


#: the registry, in canonical E-series order
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(exp_id: str, runner: RunnerFn,
             seed_param: str = "seed") -> ExperimentSpec:
    """Add one spec; duplicate ids are a programming error."""
    if exp_id in REGISTRY:
        raise ValueError(f"experiment {exp_id!r} already registered")
    spec = ExperimentSpec.from_runner(exp_id, runner, seed_param=seed_param)
    REGISTRY[exp_id] = spec
    return spec


def get_spec(exp_id: str) -> ExperimentSpec:
    """Lookup with a helpful error listing what exists."""
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(REGISTRY)}"
        ) from None


def run_registered(exp_id: str, seed: Optional[int] = None,
                   jobs: int = 1, **overrides: Any) -> ExperimentResult:
    """Module-level entry point for worker processes (picklable by name).

    The parallel CLI fans whole experiments out to workers; each worker
    re-resolves the spec by id and runs it serially inside the worker
    (``jobs`` here is for the experiment's *internal* fan-out only).
    """
    from ..exec import make_executor

    executor = make_executor(jobs) if jobs > 1 else None
    return get_spec(exp_id).run(seed=seed, executor=executor, **overrides)


for _exp_id, _runner in (
    ("E1", run_e1_cost),
    ("E2", run_e2_delay),
    ("E3", run_e3_recovery),
    ("E4", run_e4_partition),
    ("E5", run_e5_congestion),
    ("E6", run_e6_control),
    ("E6b", run_e6_tuning),
    ("E7", run_e7_tradeoff),
    ("E8", run_e8_fig31),
    ("E9", run_e9_fig41),
    ("E10", run_e10_ablation),
    ("E11", run_e11_fig32),
    ("E12", run_e12_epidemic),
    ("E13", run_e13_piggyback),
    ("E14", run_e14_multisource),
    ("E15", run_e15_load_adaptation),
    ("E16", run_e16_clock_skew),
    ("E17", run_e17_design_ablation),
    ("E18", run_e18_relative_reliability),
    ("E19", run_e19_hierarchical),
    ("E20", run_e20_host_churn),
    ("E21", run_e21_adversarial_timing),
    ("E22", run_e22_parallel_speedup),
    ("E23", run_e23_fuzz_campaign),
    ("E24", run_e24_adversary_containment),
    ("E25", run_e25_saturation),
):
    register(_exp_id, _runner)

del _exp_id, _runner
