"""Online invariant monitoring: sample §4.3 invariants *during* a run.

The checkers in :mod:`repro.verify.invariants` are end-of-run oracles.
Under chaos they are too blunt: a violation that appears while a host
is mid-recovery and disappears two samples later is expected transient
behaviour, while one that persists after the network heals is a real
protocol bug.  :class:`InvariantMonitor` samples the safety rows of
:data:`~repro.verify.invariants.INVARIANTS` (harmful parent cycles,
INFO dominance) every ``sample_period``, keys each violation
structurally (the row's kind and host names, not message strings whose
embedded maxima change every tick), and tracks how long each one has
been continuously present.  A violation is **stable** once its streak
reaches ``stable_window``; everything shorter is transient.

The monitor also subscribes to ``host.recovery_delivery`` trace events
so a chaos run's report carries per-host recovery times (crash → first
post-recovery delivery) without re-scanning the trace: it reads the
retained records once when built and takes each later one as it is
emitted, so a sample costs the same late in a run as early (DESIGN.md
§8).  Subscribers fire whether or not the tracer retains records;
:meth:`InvariantMonitor.stop` unsubscribes.

Backend-agnostic since the sans-IO port: the monitor speaks the
:class:`~repro.io.interfaces.Runtime` contract (``start_periodic`` /
``now`` / ``trace`` plus the ``trace_sink`` tracer both backends
expose), so the same oracle samples a simulated
:class:`~repro.core.engine.BroadcastSystem` and a live
:class:`~repro.io.node.UdpBroadcastSystem` — on the latter, sampling
runs in scaled wall-clock time and all span durations are protocol
seconds.  Reachability is the deployment's ``reachable(a, b)``; a UDP
deployment has no omniscient view and answers True for every pair,
which only makes the harmful-cycle check *stricter*.

Like all of :mod:`repro.verify`, this is an oracle: it reads ground
truth the protocol never sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..io.interfaces import Runtime
from ..sim.trace import TraceRecord
from .invariants import INVARIANTS

#: the trace kind whose records carry a host's recovery time
_RECOVERY = "host.recovery_delivery"

#: the invariants that must hold mid-run, not only at rest
_SAFETY = tuple(inv for inv in INVARIANTS if not inv.quiescent)

#: structural violation key: ("harmful_cycle", h1, h2, ...) or
#: ("info_dominance", child, parent)
ViolationKey = Tuple[str, ...]


@dataclass(frozen=True)
class ViolationSpan:
    """One continuous stretch during which a violation was observed."""

    key: ViolationKey
    first_seen: float
    last_seen: float
    stable: bool
    #: the streak was still active when the monitor stopped (or the
    #: report was taken) — the violation was never observed to resolve
    unresolved_at_end: bool = False

    @property
    def duration(self) -> float:
        return self.last_seen - self.first_seen


@dataclass(frozen=True)
class MonitorReport:
    """Everything an :class:`InvariantMonitor` observed."""

    samples: int
    spans: Tuple[ViolationSpan, ...]
    #: (host, recovery seconds) per observed post-recovery first delivery
    recoveries: Tuple[Tuple[str, float], ...]

    @property
    def stable_violations(self) -> Tuple[ViolationSpan, ...]:
        """Violations that persisted for at least the stable window."""
        return tuple(s for s in self.spans if s.stable)

    @property
    def transient_violations(self) -> Tuple[ViolationSpan, ...]:
        return tuple(s for s in self.spans if not s.stable)

    @property
    def unresolved_violations(self) -> Tuple[ViolationSpan, ...]:
        """Violations still active when monitoring ended (any duration)."""
        return tuple(s for s in self.spans if s.unresolved_at_end)

    @property
    def clean(self) -> bool:
        """True when no violation ever became stable."""
        return not self.stable_violations

    def recovery_times(self) -> List[float]:
        return [seconds for _, seconds in self.recoveries]


class InvariantMonitor:
    """Periodically samples safety invariants over a live system.

    ``system`` is any tree :class:`~repro.io.interfaces.Deployment`
    with ``parent_edges()`` — :class:`~repro.core.engine.BroadcastSystem`
    in-sim, :class:`~repro.io.node.UdpBroadcastSystem` over sockets.
    """

    def __init__(
        self,
        system: Any,
        sample_period: float = 1.0,
        stable_window: float = 20.0,
    ) -> None:
        if sample_period <= 0 or stable_window <= 0:
            raise ValueError("sample_period and stable_window must be positive")
        self.system = system
        self.runtime: Runtime = system.runtime
        self.sample_period = sample_period
        self.stable_window = stable_window
        self._samples = 0
        #: key -> first_seen time of the *current* streak
        self._active: Dict[ViolationKey, float] = {}
        #: closed streaks
        self._spans: List[ViolationSpan] = []
        sink = self.runtime.trace_sink
        self._recoveries: List[Tuple[str, float]] = [
            (record.source, record.fields["elapsed"])
            for record in sink.records(kind=_RECOVERY)]
        sink.subscribe(_RECOVERY, self._on_recovery)
        self._task = self.runtime.start_periodic(
            sample_period, self._sample,
            rng_stream="verify.monitor", name="invariant_monitor")

    def start(self) -> "InvariantMonitor":
        """Start periodic activity; returns self for chaining."""
        self._task.start()
        return self

    def stop(self) -> None:
        """Stop sampling and collecting recoveries; safe to call more than once.

        Streaks still open when the monitor stops are closed as explicit
        ``unresolved_at_end`` spans rather than silently dropped — a
        violation active at run end is the *most* interesting kind, and
        downstream properties (the fuzzer's, chiefly) must not miss it
        just because no later sample saw it disappear.
        """
        self._task.stop()
        self.runtime.trace_sink.unsubscribe(self._on_recovery)
        now = self.runtime.now()
        for key in list(self._active):
            first = self._active.pop(key)
            self._spans.append(ViolationSpan(
                key=key, first_seen=first, last_seen=now,
                stable=(now - first) >= self.stable_window,
                unresolved_at_end=True))

    # ------------------------------------------------------------------

    def _sample(self) -> None:
        now = self.runtime.now()
        self._samples += 1
        current = {(inv.kind, *hosts) for inv in _SAFETY
                   for hosts in inv.violations(self.system)}
        for key in current:
            if key not in self._active:
                self._active[key] = now
                self.runtime.trace("monitor.violation", "monitor",
                                   key="/".join(key))
        for key in [k for k in self._active if k not in current]:
            self._close(key, ended=now)

    def _close(self, key: ViolationKey, ended: float) -> None:
        first = self._active.pop(key)
        # Streak length counts the last sample it was still present, one
        # period before the sample that saw it gone (or the stop time).
        last = max(first, ended - self.sample_period)
        self._spans.append(ViolationSpan(
            key=key, first_seen=first, last_seen=last,
            stable=(last - first) >= self.stable_window))

    def _on_recovery(self, record: TraceRecord) -> None:
        self._recoveries.append((record.source, record.fields["elapsed"]))

    # ------------------------------------------------------------------

    def report(self) -> MonitorReport:
        """Close open streaks against the current clock and report."""
        now = self.runtime.now()
        spans = list(self._spans)
        for key, first in self._active.items():
            spans.append(ViolationSpan(
                key=key, first_seen=first, last_seen=now,
                stable=(now - first) >= self.stable_window,
                unresolved_at_end=True))
        return MonitorReport(
            samples=self._samples,
            spans=tuple(sorted(spans, key=lambda s: (s.first_seen, s.key))),
            recoveries=tuple(self._recoveries))
