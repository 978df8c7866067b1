"""Declarative experiment registry: one :class:`ExperimentSpec` per table.

A runner joins the registry by decorating itself with
:func:`register`; registration order is definition order, which is the
canonical E-series order ``--list`` and RESULTS.md follow.  A spec knows
its runner, its typed default parameters (introspected from the
runner's signature) and whether the runner accepts an
:class:`~repro.exec.Executor` for intra-experiment fan-out.  Every
runner takes its RNG seed as ``seed``; registering one that does not
fails loudly at import time instead of silently dropping ``--seed``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..exec import Executor
from .records import ExperimentResult

RunnerFn = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: id, title, runner, and normalized parameters."""

    id: str
    runner: RunnerFn
    title: str
    #: typed default parameters, introspected from the runner signature
    defaults: Mapping[str, Any] = field(default_factory=dict)
    accepts_executor: bool = False

    @classmethod
    def from_runner(cls, exp_id: str, runner: RunnerFn,
                    title: Optional[str] = None) -> "ExperimentSpec":
        """Build a spec by introspecting ``runner``'s signature."""
        signature = inspect.signature(runner)
        if "seed" not in signature.parameters:
            raise ValueError(
                f"{exp_id}: runner {runner.__name__} has no parameter "
                f"'seed' to thread the seed through")
        defaults = {
            name: parameter.default
            for name, parameter in signature.parameters.items()
            if parameter.default is not inspect.Parameter.empty
            and name != "executor"
        }
        if title is None:
            doc = (runner.__doc__ or "").strip()
            title = doc.splitlines()[0].rstrip(".") if doc else exp_id
        return cls(id=exp_id, runner=runner, title=title, defaults=defaults,
                   accepts_executor="executor" in signature.parameters)

    @property
    def default_seed(self) -> Optional[int]:
        value = self.defaults.get("seed")
        return value if isinstance(value, int) else None

    def run(self, seed: Optional[int] = None,
            executor: Optional[Executor] = None,
            **overrides: Any) -> ExperimentResult:
        """Run the experiment with normalized seed/executor threading.

        ``executor`` is forwarded only to runners that fan out
        internally; passing it to a purely serial runner is silently a
        no-op rather than a ``TypeError``, so callers can thread one
        executor through a heterogeneous batch.
        """
        kwargs = dict(overrides)
        if seed is not None:
            kwargs["seed"] = seed
        if executor is not None and self.accepts_executor:
            kwargs["executor"] = executor
        return self.runner(**kwargs)

    def cache_params(self, seed: Optional[int] = None,
                     **overrides: Any) -> Dict[str, Any]:
        """The fully-resolved parameter mapping that keys a cache entry."""
        params = dict(self.defaults)
        params.update(overrides)
        if seed is not None:
            params["seed"] = seed
        return params


#: the registry, in canonical E-series order
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(exp_id: str) -> Callable[[RunnerFn], RunnerFn]:
    """Decorator: add the runner under ``exp_id``; duplicates are a bug."""
    def decorate(runner: RunnerFn) -> RunnerFn:
        if exp_id in REGISTRY:
            raise ValueError(f"experiment {exp_id!r} already registered")
        REGISTRY[exp_id] = ExperimentSpec.from_runner(exp_id, runner)
        return runner
    return decorate


def get_spec(exp_id: str) -> ExperimentSpec:
    """Lookup with a helpful error listing what exists."""
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(REGISTRY)}"
        ) from None


def run_registered(exp_id: str, seed: Optional[int] = None,
                   **overrides: Any) -> ExperimentResult:
    """Module-level entry point for worker processes (picklable by name).

    The parallel CLI fans whole experiments out to workers; each worker
    re-resolves the spec by id and runs it serially.
    """
    return get_spec(exp_id).run(seed=seed, **overrides)
