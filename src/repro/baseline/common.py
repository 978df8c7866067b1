"""Shared pieces of the baseline broadcast implementations.

Both baselines reuse the tree protocol's :class:`~repro.core.wire.DataMsg`
payload and :class:`~repro.core.delivery.DeliveryLog`, so the analysis
layer can compare systems without caring which protocol produced the
deliveries.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.delivery import DeliverCallback, DeliveryLog, DeliveryRecord
from ..core.wire import DataMsg
from ..io.interfaces import CounterLike, HistogramLike, Runtime, Transport
from ..net import HostId


class BaselineHostBase:
    """A minimal receiving host: dedup + delivery log."""

    def __init__(
        self,
        runtime: Runtime,
        port: Transport,
        deliver_callback: Optional[DeliverCallback] = None,
    ) -> None:
        self.runtime = runtime
        self.port = port
        self.me = port.host_id
        self.deliveries = DeliveryLog(self.me, deliver_callback)
        self.store: Dict[int, DataMsg] = {}
        self.crashed = False
        self._crashed_at: Optional[float] = None
        self._awaiting_recovery_delivery = False
        #: monotone stable-storage flush point; survives crashes
        self._flushed_prefix = 0
        #: delivery metric handles, bound on the first delivery
        self._c_deliver: Optional[CounterLike] = None
        self._h_delay: Optional[HistogramLike] = None

    def start(self) -> "BaselineHostBase":
        """Start periodic activity (none here); returns self."""
        return self

    def stop(self) -> None:
        """Stop periodic activity (none here)."""

    def accept_data(self, msg: DataMsg, supplier: HostId) -> bool:
        """Record a data message; returns False for duplicates."""
        runtime = self.runtime
        seq = msg.seq
        if seq in self.deliveries:
            runtime.counter("proto.data.discard.duplicate").inc()
            return False
        self.store[seq] = msg
        now = runtime.now()
        self.deliveries.record(DeliveryRecord(
            seq, msg.content, msg.created_at, now, supplier, msg.gapfill))
        if runtime.trace_sink.active:
            runtime.trace("host.deliver", str(self.me), seq=seq,
                          sender=str(supplier), gapfill=msg.gapfill)
        deliver, delay = self._c_deliver, self._h_delay
        if deliver is None or delay is None:
            deliver = self._c_deliver = runtime.counter("proto.deliver")
            delay = self._h_delay = runtime.histogram("proto.delay")
        deliver.value += 1.0
        delay.observe(now - msg.created_at)
        if self._awaiting_recovery_delivery:
            self._awaiting_recovery_delivery = False
            elapsed = now - (self._crashed_at or 0.0)
            runtime.histogram("proto.host.recovery_time").observe(elapsed)
            runtime.trace("host.recovery_delivery", str(self.me),
                          elapsed=elapsed, seq=seq)
        return True

    # -- crash/recovery (failure model parity with the tree hosts) -----

    def _stable_prefix(self) -> int:
        """What survives a crash; subclasses apply their stable lag.

        Monotone: once flushed, a message cannot be lost by a later
        crash, so the flush point never moves backward.
        """
        self._flushed_prefix = max(self._flushed_prefix,
                                   self.deliveries.contiguous_prefix())
        return self._flushed_prefix

    def crash(self) -> None:
        """Crash this host: volatile state beyond the contiguous stable
        prefix is lost, and inbound packets are dropped until recovery.

        Uses the same trace events and counters as the tree protocol's
        :meth:`repro.core.host.BroadcastHost.crash`, so chaos harnesses
        and experiments account for both protocols uniformly.
        """
        if self.crashed:
            return
        self.crashed = True
        self._crashed_at = self.runtime.now()
        self._awaiting_recovery_delivery = False
        stable = self._stable_prefix()
        lost = self.deliveries.forget_above(stable)
        for seq in [s for s in self.store if s > stable]:
            del self.store[seq]
        self.runtime.trace("host.crash", str(self.me),
                            stable_prefix=stable, lost=lost)
        self.runtime.counter("proto.host.crash").inc()

    def recover(self) -> None:
        """Recover from a crash; no-op when the host is up."""
        if not self.crashed:
            return
        self.crashed = False
        self._awaiting_recovery_delivery = True
        down_for = (self.runtime.now() - self._crashed_at
                    if self._crashed_at is not None else 0.0)
        self.runtime.trace("host.recover", str(self.me), down_for=down_for)
        self.runtime.counter("proto.host.recover").inc()
