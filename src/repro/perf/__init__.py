"""The pinned deterministic scenario set.

:mod:`repro.perf.scenarios` holds a synthetic kernel-throughput
micro-benchmark plus representative experiment workloads (E2 delay, E5
congestion, E20 host churn, E21 packet chaos, E25 saturation).  Every
scenario is deterministic for a given seed: the same seed must produce
the same ``events_executed``, delivery sequences, and trace-kind
summary on every run (the seed-determinism guard test in ``tests/perf``
enforces this — it is the regression net for all hot-path rewrites).

Timing lives elsewhere: the repo benchmark (``python -m bench``,
``bench/README.md``) is the only perf harness and reuses these
scenarios and :meth:`ScenarioRun.delivery_signature`.
"""

from .scenarios import SCENARIOS, Scenario, ScenarioRun

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioRun",
]
