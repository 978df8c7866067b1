"""Bounded host resources: buffer limits, shedding policies, admission.

The paper's correctness argument lets hosts buffer and retransmit
without bound — INFO sets, message stores, and outbound queues all grow
as needed.  Under sustained overload that assumption is the first thing
to break on a real machine, so this module gives the protocol an
explicit resource model (DESIGN.md §13):

* :class:`ResourceConfig` bounds the three implicitly-unbounded host
  buffers — the retransmit/message **store**, the gap-fill suppression
  **fill table**, and the **outbound** data queue on the access link —
  each with an explicit shedding policy, every shed traced and counted;
* :class:`TokenBucket` implements source-side **admission control**:
  a saturated source degrades by *rejecting* new broadcasts
  (reject-at-source) instead of by unbounded memory growth.  The
  refill rate is braked by the source's
  :class:`~repro.core.rtt.CongestionSignal`, closing the backpressure
  loop from bad receives to admitted load.

Everything here is **off by default**: ``ProtocolConfig.resources`` is
``None`` and a :class:`ResourceConfig` with all limits at 0 disables
every path.  Neither state draws randomness nor schedules events, so
disabled runs are byte-identical to builds that predate this module
(proven by the E2/E20/E21 signature tests).

Shedding never lies to the protocol: an evicted store entry keeps its
sequence number in INFO (the host really did deliver it); it merely can
no longer *serve* that message, and both data forwarding and gap
filling already tolerate a missing store entry.  Recovery then flows
through the ordinary gap-fill machinery via some other holder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ShedPolicy(Enum):
    """What to evict when a bounded buffer is full.

    ``DROP_NEWEST``/``DROP_OLDEST`` apply to the message store;
    the outbound queue is inherently drop-newest (the send that found
    the queue full is the one skipped) and admission control inherently
    rejects at the source (the broadcast that found the bucket empty is
    the one rejected).
    """

    DROP_NEWEST = "drop_newest"
    DROP_OLDEST = "drop_oldest"


@dataclass(frozen=True)
class ResourceConfig:
    """Per-host resource bounds.  A limit of 0 means *unbounded* (off).

    The defaults leave everything unbounded so
    ``ProtocolConfig(resources=ResourceConfig())`` is still byte-
    identical to ``resources=None`` — limits are opted into one buffer
    at a time.
    """

    #: cap on entries in the message store (non-source hosts only — the
    #: source's store is its stable outbox and is never shed)
    store_limit: int = 0
    #: which end of the store to evict when over the limit
    store_policy: ShedPolicy = ShedPolicy.DROP_OLDEST
    #: cap on total (target, seq) gap-fill suppression entries; evicts
    #: the oldest-stamped entries first (the least useful: their
    #: suppression window is closest to expiring anyway)
    fill_table_limit: int = 0
    #: skip (shed) outbound *data* sends when the access-link transmit
    #: queue holds at least this many packets; control traffic is never
    #: shed, so the control plane stays alive under data overload
    outbound_queue_limit: int = 0
    #: source admission rate in broadcasts/second (0 = no admission
    #: control); excess broadcasts are rejected, not queued
    admission_rate: float = 0.0
    #: burst allowance of the admission token bucket
    admission_burst: int = 8
    #: multiplier applied to the admission refill rate while the
    #: source's congestion signal is above
    #: :data:`repro.core.host.CONGESTION_THRESHOLD` —
    #: the backpressure path from bad receives to admitted load
    congestion_brake: float = 0.5

    def __post_init__(self) -> None:
        if self.store_limit < 0:
            raise ValueError("store_limit must be >= 0 (0 = unbounded)")
        if self.fill_table_limit < 0:
            raise ValueError("fill_table_limit must be >= 0 (0 = unbounded)")
        if self.outbound_queue_limit < 0:
            raise ValueError("outbound_queue_limit must be >= 0 (0 = unbounded)")
        if self.admission_rate < 0:
            raise ValueError("admission_rate must be >= 0 (0 = off)")
        if self.admission_burst < 1:
            raise ValueError("admission_burst must be at least 1")
        if not 0 < self.congestion_brake <= 1:
            raise ValueError("congestion_brake must be in (0, 1]")

    @property
    def bounds_store(self) -> bool:
        """True when the message store is bounded."""
        return self.store_limit > 0

    @property
    def bounds_fill_table(self) -> bool:
        """True when the gap-fill suppression table is bounded."""
        return self.fill_table_limit > 0

    @property
    def bounds_outbound(self) -> bool:
        """True when outbound data sends are shed against queue depth."""
        return self.outbound_queue_limit > 0

    @property
    def admission_enabled(self) -> bool:
        """True when source-side admission control is active."""
        return self.admission_rate > 0


class TokenBucket:
    """A deterministic token bucket (no RNG, no scheduled events).

    Tokens refill lazily on each :meth:`try_take` from the elapsed
    simulated time, so an idle bucket costs nothing.  The ``brake``
    argument scales the refill rate for the interval since the last
    call — this is how the congestion signal throttles admissions
    without the bucket knowing anything about congestion.
    """

    def __init__(self, rate: float, burst: int, now: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._last = now

    @property
    def tokens(self) -> float:
        """Tokens available as of the last refill (diagnostic)."""
        return self._tokens

    def _refill(self, now: float, brake: float) -> None:
        elapsed = max(now - self._last, 0.0)
        self._last = now
        self._tokens = min(float(self.burst),
                           self._tokens + elapsed * self.rate * brake)

    def try_take(self, now: float, brake: float = 1.0) -> bool:
        """Take one token if available; returns False when empty."""
        self._refill(now, brake)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def reset(self, now: float) -> None:
        """Restore a full bucket (host recovery)."""
        self._tokens = float(self.burst)
        self._last = now
