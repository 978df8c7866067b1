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
from .host import BroadcastHost
from .resources import TokenBucket


class SourceHost(BroadcastHost):
    """The single broadcast source (root of the host parent graph)."""

    is_source = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
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

    def _build_tasks(self) -> List[PeriodicHandle]:
        # Drop the attachment task: the source never looks for a parent.
        return [task for task in super()._build_tasks() if task.name != "attach"]

    def _attachment_tick(self) -> None:  # pragma: no cover - never scheduled
        raise AssertionError("the source does not run the attachment procedure")

    def _flushable_prefix(self) -> int:
        """The source's own stream is its stable outbox (Section 4.1:
        INFO_s is updated *when a message is generated*), so a source
        crash loses volatile protocol state — views, CHILDREN — but
        never the messages it originated or its sequence counter."""
        return self.info.max_seqno

    # ------------------------------------------------------------------

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
        msg = self._issue(content, self.config.data_size_bits)
        seq = msg.seq
        self.info.add(seq)
        if not self.crashed:
            # While crashed, the message sits in the stable outbox only;
            # hosts catch up via gap filling once the source recovers.
            for child in sorted(self.children):
                self._send_data(child, seq, False, msg.created_at)
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
