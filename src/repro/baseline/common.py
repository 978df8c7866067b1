"""Shared pieces of the baseline broadcast implementations.

Both baselines reuse the tree protocol's :class:`~repro.core.wire.DataMsg`
payload and its host core (:class:`~repro.core.delivery.HostCore`:
delivery ledger, crash model, issue step), so the analysis layer can
compare systems without caring which protocol produced the deliveries,
and every protocol crashes by the same rules.
"""

from __future__ import annotations

from ..core.delivery import HostCore
from ..core.wire import DataMsg
from ..net import HostId


class BaselineHostBase(HostCore):
    """A baseline host: the shared host core plus a duplicate check."""

    def accept_data(self, msg: DataMsg, supplier: HostId) -> bool:
        """Record a data message; returns False for duplicates."""
        runtime = self.runtime
        seq = msg.seq
        if seq in self.deliveries:
            runtime.counter("proto.data.discard.duplicate").inc()
            return False
        self.store[seq] = msg
        self._deliver(msg, supplier, runtime.now(), msg.gapfill)
        return True
