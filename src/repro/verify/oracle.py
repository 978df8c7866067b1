"""Convergence driving: run a system until its structure stops moving."""

from __future__ import annotations

from ..core.engine import BroadcastSystem


def run_to_quiescence(
    system: BroadcastSystem,
    stable_window: float = 10.0,
    timeout: float = 300.0,
    check_period: float = 1.0,
) -> bool:
    """Run until the parent graph and delivery counts are unchanged for
    ``stable_window`` simulated seconds.  Returns False on timeout.

    Note this is *observed* stability: periodic protocol activity keeps
    running, but the structure has stopped changing.
    """
    if stable_window <= 0 or check_period <= 0:
        raise ValueError("stable_window and check_period must be positive")
    sim = system.sim
    deadline = sim.now + timeout
    last_state = None
    stable_since = sim.now
    while sim.now < deadline:
        state = (tuple(sorted((str(k), str(v)) for k, v in
                              system.parent_edges().items())),
                 tuple(sorted((str(k), v) for k, v in
                              system.delivered_counts().items())))
        if state != last_state:
            last_state = state
            stable_since = sim.now
        elif sim.now - stable_since >= stable_window:
            return True
        sim.run(until=min(sim.now + check_period, deadline))
    return False
