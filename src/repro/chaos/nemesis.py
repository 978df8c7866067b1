"""Wall-clock wait for a :class:`~repro.chaos.plan.ChaosPlan`'s heal.

:class:`~repro.chaos.plan.ChaosPlan` is the one chaos orchestrator on
every backend.  The one part that belongs to the wall clock alone is
waiting for its heal: in-sim the heal timer fires at *exactly*
``heal_by`` virtual seconds, under asyncio when the event loop gets
around to it — protocol time ``heal_by`` plus scheduling noise.
:func:`wait_healed` therefore polls ``plan.healed`` under a wall-clock
deadline of the *remaining* protocol seconds (scaled by the runtime's
``time_scale``) plus explicit slack, and raises if the loop never
delivered the timer: a hung loop must fail the run, not hang the
harness.  A runtime callback that raised fails the wait too.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, cast

from .plan import ChaosPlan

if TYPE_CHECKING:
    from ..io.aio import AsyncioRuntime


async def wait_healed(plan: ChaosPlan, wall_slack: float = 5.0) -> None:
    """Await ``plan``'s heal with a wall-clock deadline.

    Raises ``TimeoutError`` if the heal has not happened within the
    remaining protocol time to ``heal_by`` in wall seconds plus
    ``wall_slack``, and re-raises the first exception a timer or
    periodic callback of the runtime raised.
    """
    runtime = cast("AsyncioRuntime", plan.runtime)
    remaining = max(0.0, plan.spec.heal_by - runtime.now())
    deadline = remaining * runtime.time_scale + wall_slack
    loop = asyncio.get_running_loop()
    give_up = loop.time() + deadline
    while not plan.healed:
        runtime.raise_failure()
        if loop.time() >= give_up:
            raise TimeoutError(
                f"chaos heal timer did not fire within {deadline:.1f}s "
                f"wall ({remaining:.1f} protocol seconds remaining to "
                f"heal_by={plan.spec.heal_by} plus {wall_slack}s slack)")
        await asyncio.sleep(0.25 * runtime.time_scale)
    runtime.raise_failure()
