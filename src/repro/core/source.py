"""The broadcast source host.

The source is a normal protocol participant except that (per Section
4.2) it never runs the attachment procedure — it is permanently the
root of the host parent graph and the leader of its own cluster.  It
numbers data messages consecutively from 1 and pushes each new message
to its current children; everything else (INFO exchange, gap filling,
answering attach requests) is inherited from
:class:`~repro.core.host.BroadcastHost`.
"""

from __future__ import annotations

from typing import List, Optional

from ..io.interfaces import PeriodicHandle
from .delivery import DeliveryRecord
from .host import BroadcastHost
from .resources import TokenBucket
from .wire import DataMsg


class SourceHost(BroadcastHost):
    """The single broadcast source (root of the host parent graph)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._next_seq = 1
        # Source-side admission control (DESIGN.md §13): a token bucket
        # paces how fast new broadcasts are *accepted*; the congestion
        # signal brakes the refill while receives are going bad.  None
        # unless the resource model asks for it.
        self._admission: Optional[TokenBucket] = None
        resources = self.config.resources
        if resources is not None and resources.admission_enabled:
            self._admission = TokenBucket(resources.admission_rate,
                                          resources.admission_burst,
                                          now=self.runtime.now())

    @property
    def is_source(self) -> bool:
        """True for the broadcast source host."""
        return True

    def _build_tasks(self) -> List[PeriodicHandle]:
        # Drop the attachment task: the source never looks for a parent.
        return [task for task in super()._build_tasks() if task.name != "attach"]

    def _attachment_tick(self) -> None:  # pragma: no cover - never scheduled
        raise AssertionError("the source does not run the attachment procedure")

    def _stable_prefix(self) -> int:
        """The source's own stream is its stable outbox (Section 4.1:
        INFO_s is updated *when a message is generated*), so a source
        crash loses volatile protocol state — views, CHILDREN — but
        never the messages it originated or its sequence counter."""
        return self.info.max_seqno

    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next broadcast() call will use."""
        return self._next_seq

    def broadcast(self, content: object = None) -> int:
        """Issue one new broadcast data message; returns its seqno.

        The message is recorded in the source's own INFO set/store
        (``INFO_s`` is updated every time a new message is generated)
        and pushed to the source's current children.  Hosts not yet
        attached will pick it up through attachment + gap filling.

        With admission control enabled, a broadcast arriving while the
        token bucket is empty is **rejected**: no sequence number is
        consumed and 0 is returned (real seqnos start at 1).  Rejection
        is the reject-at-source shedding policy — the degradation mode
        that keeps memory bounded under open-loop overload.
        """
        if not self._admit():
            return 0
        runtime = self.runtime
        # One clock read: the message and the source's own record carry
        # the same creation time, so the source's delay is exactly 0.
        now = runtime.now()
        seq = self._next_seq
        self._next_seq += 1
        msg = DataMsg(seq, content, now, self.me, False,
                      self.config.data_size_bits)
        self.info.add(seq)
        self.store[seq] = msg
        self.deliveries.record(DeliveryRecord(
            seq, content, now, now, self.me, False))
        if runtime.trace_sink.active:
            runtime.trace("source.broadcast", str(self.me), seq=seq,
                          while_crashed=self.crashed)
        runtime.counter("proto.source.broadcasts").inc()
        if not self.crashed:
            # While crashed, the message sits in the stable outbox only;
            # hosts catch up via gap filling once the source recovers.
            for child in sorted(self.children):
                self._send_data(child, seq, False, now)
        return seq

    def _admit(self) -> bool:
        """Admission check for one broadcast (True = accepted)."""
        if self._admission is None:
            return True
        resources = self.config.resources
        assert resources is not None
        brake = resources.congestion_brake if self._congested() else 1.0
        if self._admission.try_take(self.runtime.now(), brake=brake):
            return True
        self.runtime.trace("source.admission_reject", str(self.me),
                            braked=brake < 1.0)
        self.runtime.counter("proto.source.admission_rejected").inc()
        return False

    def recover(self) -> None:
        """Recover from a crash; the admission bucket restarts full."""
        if self.crashed and self._admission is not None:
            self._admission.reset(self.runtime.now())
        super().recover()
