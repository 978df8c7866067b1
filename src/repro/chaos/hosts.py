"""Host crash/recovery injectors (the failure model's third leg).

Both injectors drive a broadcast *system*'s ``crash_host`` /
``recover_host`` lifecycle hooks (every
:class:`~repro.io.interfaces.Deployment` has them, in-sim or over real
sockets), so one chaos harness exercises every protocol under test.  As
with link and server failures, the injection is silent — the protocol
must discover crashed peers through its own timeouts.

Backend-agnostic since the sans-IO port: scheduling goes through the
:class:`~repro.io.interfaces.Runtime` contract (``start_timer`` /
``cancel_timer`` / ``rng``), so the same seeded injectors run on the
discrete-event simulator and on the wall-clock asyncio backend.  Pass
the deployment's ``system.runtime``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..io.interfaces import Runtime, TimerHandle
from ..net import HostId

#: notification hook: called with the host id right after a crash is
#: applied, so composing injectors (chiefly PacketChaos, via ChaosPlan)
#: can cancel in-flight work targeting the now-dead host
CrashHook = Optional[Callable[[HostId], None]]


class HostCrashSchedule:
    """Scheduled host crashes and recoveries (chainable, like the link
    and server schedules in :mod:`repro.net.failures`)."""

    def __init__(self, runtime: Runtime, system: Any,
                 on_crash: CrashHook = None) -> None:
        self.runtime = runtime
        self.system = system
        self._on_crash = on_crash
        #: every armed transition, so stop() can cancel those still due
        self._pending: List[TimerHandle] = []

    def crash(self, time: float, host: HostId) -> "HostCrashSchedule":
        """Crash ``host`` at protocol time ``time`` (chainable)."""
        self._at(time, partial(self._apply, host, False))
        return self

    def recover(self, time: float, host: HostId) -> "HostCrashSchedule":
        """Recover ``host`` at protocol time ``time`` (chainable)."""
        self._at(time, partial(self._apply, host, True))
        return self

    def outage(self, start: float, end: float, host: HostId) -> "HostCrashSchedule":
        """``host`` is down during [start, end)."""
        if end <= start:
            raise ValueError(f"outage end {end} must be after start {start}")
        return self.crash(start, host).recover(end, host)

    def stop(self) -> None:
        """Cancel every transition not yet applied."""
        for handle in self._pending:
            self.runtime.cancel_timer(handle)
        self._pending.clear()

    def _at(self, when: float, callback: Callable[[], None]) -> None:
        self._pending.append(
            self.runtime.start_timer(when - self.runtime.now(), callback))

    def _apply(self, host: HostId, up: bool) -> None:
        if up:
            self.system.recover_host(host)
        else:
            self.system.crash_host(host)
            if self._on_crash is not None:
                self._on_crash(host)
        self.runtime.trace("failure.apply", "schedule", host=str(host), up=up)
        self.runtime.counter(
            "net.failures.host.up" if up else "net.failures.host.down").inc()


class HostFlapper:
    """Randomly crashes and recovers a set of hosts (host churn).

    Mirrors :class:`repro.net.failures.LinkFlapper`: each managed host
    alternates up/down with exponentially distributed durations drawn
    from one dedicated RNG stream, so a given seed yields an identical
    churn sequence.  The source is excluded by default — pass ``hosts``
    explicitly to churn it too.
    """

    def __init__(
        self,
        runtime: Runtime,
        system: Any,
        hosts: Optional[Iterable[HostId]] = None,
        mean_up: float = 30.0,
        mean_down: float = 5.0,
        rng_stream: str = "chaos.hostflapper",
        on_crash: CrashHook = None,
    ) -> None:
        if mean_up <= 0 or mean_down <= 0:
            raise ValueError("mean_up and mean_down must be positive")
        self.runtime = runtime
        self.system = system
        self._on_crash = on_crash
        if hosts is None:
            hosts = [h for h in system.hosts if h != system.source_id]
        self.hosts: List[HostId] = sorted(hosts)
        if not self.hosts:
            raise ValueError("HostFlapper needs at least one host to churn")
        self.mean_up = mean_up
        self.mean_down = mean_down
        self._rng = self.runtime.rng(rng_stream)
        self._running = False
        #: per-host pending transition timer, cancelled on stop() so a
        #: stopped flapper can never crash/recover a host afterwards
        self._pending: Dict[HostId, TimerHandle] = {}

    def start(self) -> "HostFlapper":
        """Start periodic activity; returns self for chaining."""
        self._running = True
        for host in self.hosts:
            self._arm(self.mean_up, self._crash, host)
        return self

    def stop(self) -> None:
        """Stop all transitions, including any already scheduled
        (possibly leaving hosts crashed — see :meth:`heal`).

        Pending crash/recover timers are cancelled — without that, a
        timer armed before stop() could crash a host *after* a chaos
        plan's heal-by horizon and break its guarantee.
        """
        self._running = False
        for handle in self._pending.values():
            self.runtime.cancel_timer(handle)
        self._pending.clear()

    def _arm(self, mean: float, action: Callable[[HostId], None],
             host: HostId) -> None:
        delay = self._rng.expovariate(1.0 / mean)
        self._pending[host] = self.runtime.start_timer(
            delay, partial(action, host))

    def heal(self) -> None:
        """Stop and recover every managed host still down.

        This is the flapper's heal-by guarantee: after ``heal()`` no
        host remains crashed on this flapper's account.
        """
        self.stop()
        for host in self.hosts:
            self.system.recover_host(host)

    def _crash(self, host: HostId) -> None:
        if not self._running:
            return
        self._pending.pop(host, None)
        self.system.crash_host(host)
        if self._on_crash is not None:
            self._on_crash(host)
        self.runtime.counter("net.failures.host.down").inc()
        self._arm(self.mean_down, self._recover, host)

    def _recover(self, host: HostId) -> None:
        if not self._running:
            return
        self._pending.pop(host, None)
        self.system.recover_host(host)
        self.runtime.counter("net.failures.host.up").inc()
        self._arm(self.mean_up, self._crash, host)
