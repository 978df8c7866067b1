"""The application-facing delivery record.

Each host delivers every broadcast message exactly once, *not
necessarily in order* (the paper deliberately relaxes ordering to
minimize delay — Section 1).  The :class:`DeliveryLog` records, per
sequence number: when it was delivered, who supplied it, and whether it
arrived as a normal parent-graph propagation or as a gap fill.  The
analysis layer builds the paper's delay and recovery statistics from
these records.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net import HostId
from ..net.message import TuplePayload


class DeliveryRecord(TuplePayload):
    """One message delivered to one host.

    A tuple record, like the payloads (DESIGN.md §8 "Tuple payloads"):
    every host builds one per delivery, so construction is one
    ``tuple.__new__`` call.  Producers pass the fields positionally;
    keywords work too.
    """

    __slots__ = ()

    seq: int
    content: object
    created_at: float
    delivered_at: float
    supplier: HostId
    via_gapfill: bool

    def __new__(cls, seq: int, content: object, created_at: float,
                delivered_at: float, supplier: HostId,
                via_gapfill: bool) -> "DeliveryRecord":
        return tuple.__new__(cls, (seq, content, created_at, delivered_at,
                                   supplier, via_gapfill))

    @property
    def delay(self) -> float:
        """End-to-end latency from generation at the source."""
        return self.delivered_at - self.created_at


DeliverCallback = Callable[[HostId, DeliveryRecord], None]


class DeliveryLog:
    """Per-host record of delivered messages."""

    def __init__(self, owner: HostId, callback: Optional[DeliverCallback] = None) -> None:
        self.owner = owner
        self._records: Dict[int, DeliveryRecord] = {}
        self._prefix = 0  # watermark: 1.._prefix are known delivered
        self._callback = callback

    def record(self, record: DeliveryRecord) -> None:
        """Record one delivery; duplicate sequence numbers are a bug."""
        if record.seq in self._records:
            raise AssertionError(
                f"{self.owner}: duplicate delivery of seq {record.seq}")
        self._records[record.seq] = record
        if self._callback is not None:
            self._callback(self.owner, record)

    def forget_above(self, n: int) -> int:
        """Drop records with seq > ``n`` (host-crash modeling).

        A crashing host loses the delivered messages the application had
        not yet flushed to stable storage; after recovery those sequence
        numbers are legitimately delivered a second time.  Returns how
        many records were forgotten.
        """
        lost = [seq for seq in self._records if seq > n]
        for seq in lost:
            del self._records[seq]
        self._prefix = min(self._prefix, max(n, 0))
        return len(lost)

    def contiguous_prefix(self) -> int:
        """Largest n such that messages 1..n are all delivered.

        Resumes from the last answer, so polling it is O(1) amortised.
        """
        n = self._prefix
        while (n + 1) in self._records:
            n += 1
        self._prefix = n
        return n

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, seq: int) -> bool:
        return seq in self._records

    def get(self, seq: int) -> Optional[DeliveryRecord]:
        """The record for ``seq``, or None if not delivered."""
        return self._records.get(seq)

    def records(self) -> List[DeliveryRecord]:
        """All deliveries in sequence-number order."""
        return [self._records[seq] for seq in sorted(self._records)]

    def has_all(self, n: int) -> bool:
        """True when messages 1..n have all been delivered."""
        return self.contiguous_prefix() >= n

    def delays(self) -> List[float]:
        """Delays of all deliveries, in sequence order."""
        return [record.delay for record in self.records()]

    def out_of_order_count(self) -> int:
        """How many messages arrived after a higher-numbered one."""
        by_time = sorted(self._records.values(), key=lambda r: (r.delivered_at, r.seq))
        count = 0
        max_seq = 0
        for record in by_time:
            if record.seq < max_seq:
                count += 1
            max_seq = max(max_seq, record.seq)
        return count
