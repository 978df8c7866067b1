"""The application-facing delivery record, and the host core every
protocol shares.

Each host delivers every broadcast message exactly once, *not
necessarily in order* (the paper deliberately relaxes ordering to
minimize delay — Section 1).  The :class:`DeliveryLog` records, per
sequence number: when it was delivered, who supplied it, and whether it
arrived as a normal parent-graph propagation or as a gap fill.  The
analysis layer builds the paper's delay and recovery statistics from
these records.  Per-delivery state is packed, records are views: the
log keeps its fields as columns (``array``/``bytearray``/``list``) and
builds a :class:`DeliveryRecord` only for a delivery callback or a read.

:class:`HostCore` is the half of a host that does not depend on the
protocol: the delivery ledger, the crash model and the source's issue
step.  The tree hosts and both baselines subclass it, so every protocol
the experiments compare delivers and crashes by the same rules.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Callable, Dict, Iterator, List, Optional, Set

from ..io.interfaces import (
    CounterLike,
    HistogramLike,
    PeriodicHandle,
    Runtime,
    Transport,
)
from ..net import HostId, Packet
from ..net.message import TuplePayload
from .wire import DataMsg, checksum_ok


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
    """Per-host record of delivered messages, as packed columns.

    One entry per delivery, kept for the life of the run, in delivery
    order (about 44 B beyond the content); records are views built on
    read.  Membership is the prefix watermark plus the seqs delivered
    above it: nothing is indexed by seq (a frame may carry any seq up
    to 2**63 - 1)."""

    def __init__(self, owner: HostId, callback: Optional[DeliverCallback] = None) -> None:
        self.owner = owner
        self._callback = callback
        # the columns, one entry per delivery, in delivery order
        self._seq = array("q")
        self._created = array("d")
        self._delivered = array("d")
        self._content: List[object] = []
        self._supplier: List[HostId] = []
        self._gapfill = bytearray()
        self._prefix = 0  # watermark: 1.._prefix are all delivered
        self._above: Set[int] = set()  # delivered seqs above the watermark

    def record(self, seq: int, content: object, created_at: float,
               delivered_at: float, supplier: HostId, via_gapfill: bool) -> None:
        """Record one delivery; duplicate sequence numbers are a bug."""
        if seq < 1:
            raise ValueError(f"{self.owner}: seq must be >= 1, got {seq}")
        if seq <= self._prefix or seq in self._above:
            raise AssertionError(f"{self.owner}: duplicate delivery of seq {seq}")
        self._seq.append(seq)
        self._created.append(created_at)
        self._delivered.append(delivered_at)
        self._content.append(content)
        self._supplier.append(supplier)
        self._gapfill.append(via_gapfill)
        if seq == self._prefix + 1:
            above, top = self._above, seq
            while top + 1 in above:
                top += 1
                above.remove(top)
            self._prefix = top
        else:
            self._above.add(seq)
        if self._callback is not None:
            self._callback(self.owner, DeliveryRecord(
                seq, content, created_at, delivered_at, supplier, via_gapfill))

    def forget_above(self, n: int) -> int:
        """Drop records with seq > ``n`` (host-crash modeling).

        A crashing host loses the delivered messages the application had
        not yet flushed to stable storage; after recovery those sequence
        numbers are legitimately delivered a second time.  Returns how
        many records were forgotten.
        """
        keep = bytes(seq <= n for seq in self._seq)
        lost = len(keep) - sum(keep)
        if lost:
            self._seq = array("q", compress(self._seq, keep))
            self._created = array("d", compress(self._created, keep))
            self._delivered = array("d", compress(self._delivered, keep))
            self._content = list(compress(self._content, keep))
            self._supplier = list(compress(self._supplier, keep))
            self._gapfill = bytearray(compress(self._gapfill, keep))
        self._prefix = min(self._prefix, max(n, 0))
        self._above = {seq for seq in self._above if seq <= n}
        return lost

    def contiguous_prefix(self) -> int:
        """Largest n such that messages 1..n are all delivered."""
        return self._prefix

    # -- queries (records are built here, from the columns) ----------------

    def __len__(self) -> int:
        return len(self._seq)

    def __contains__(self, seq: int) -> bool:
        return 1 <= seq <= self._prefix or seq in self._above

    def __iter__(self) -> Iterator[int]:
        """The delivered seqs, in delivery order."""
        return iter(self._seq)

    def _view(self, i: int) -> DeliveryRecord:
        return DeliveryRecord(self._seq[i], self._content[i], self._created[i],
                              self._delivered[i], self._supplier[i],
                              bool(self._gapfill[i]))

    def _by_seq(self) -> List[int]:
        """Column indexes in sequence-number order."""
        return sorted(range(len(self._seq)), key=self._seq.__getitem__)

    def get(self, seq: int) -> Optional[DeliveryRecord]:
        """The record for ``seq``, or None if not delivered."""
        return self._view(self._seq.index(seq)) if seq in self else None

    def records(self) -> List[DeliveryRecord]:
        """All deliveries in sequence-number order."""
        return [self._view(i) for i in self._by_seq()]

    def has_all(self, n: int) -> bool:
        """True when messages 1..n have all been delivered."""
        return self._prefix >= n

    def delays(self) -> List[float]:
        """Delays of all deliveries, in sequence order."""
        delivered, created = self._delivered, self._created
        return [delivered[i] - created[i] for i in self._by_seq()]

    def out_of_order_count(self) -> int:
        """How many messages arrived after a higher-numbered one."""
        seqs, delivered = self._seq, self._delivered
        count = 0
        max_seq = 0
        for i in sorted(range(len(seqs)), key=lambda i: (delivered[i], seqs[i])):
            if seqs[i] < max_seq:
                count += 1
            max_seq = max(max_seq, seqs[i])
        return count


class HostCore:
    """The protocol-independent half of every host.

    * **Delivery ledger**: the message ``store``, the
      :class:`DeliveryLog`, and per delivery the ``host.deliver`` trace,
      ``proto.deliver`` / ``proto.delay`` and, first after a recovery,
      ``proto.host.recovery_time`` (:meth:`_deliver`).
    * **Crash model** (the failure model's third leg): ``crashed``, the
      monotone stable-storage flush point, :meth:`crash` /
      :meth:`recover`, and inbound packets dropped while down.
    * **The receive step** (:meth:`_on_packet`): the crashed drop, then
      the checksum drop, then the protocol's :meth:`_receive`.
    * **The source's issue step** (:meth:`_issue`).

    A protocol adds its receive rules (:meth:`_receive`), what it can
    flush to stable storage (:meth:`_flushable_prefix`), the rest of the
    volatile state a crash loses (:meth:`_forget_above`) and its periodic
    activity (:meth:`start` / :meth:`stop`, which a crash stops and a
    recovery restarts).  The core reads only the delivery log, never an
    INFO set: the basic algorithm keeps none and never enters the tree's
    layers.
    """

    #: True for the broadcast source, whose own messages are delivered
    #: at issue time (so it has no recovery-time metric)
    is_source = False

    def __init__(self, runtime: Runtime, port: Transport,
                 deliver_callback: Optional[DeliverCallback] = None) -> None:
        self.runtime = runtime
        self.port = port
        self.me = port.host_id
        self.store: Dict[int, DataMsg] = {}
        self.deliveries = DeliveryLog(self.me, deliver_callback)
        self.crashed = False
        self._crashed_at = 0.0
        self._awaiting_recovery_delivery = False
        #: monotone stable-storage flush point; survives crashes
        self._flushed_prefix = 0
        self._next_seq = 1
        #: delivery metric handles, bound on first use so a host that
        #: never delivers registers nothing (DESIGN.md §8)
        self._c_deliver: Optional[CounterLike] = None
        self._h_delay: Optional[HistogramLike] = None
        #: the protocol's periodic activity (a crash stops it)
        self._tasks: List[PeriodicHandle] = []
        port.set_receiver(self._on_packet)

    def start(self) -> "HostCore":
        """Start periodic activity; returns self for chaining."""
        for task in self._tasks:
            task.start()
        return self

    def stop(self) -> None:
        """Stop periodic activity; safe to call more than once."""
        for task in self._tasks:
            task.stop()

    # -- receive -----------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if self.crashed:
            # A crashed host neither processes nor acknowledges anything;
            # the packet is lost exactly as if the host were powered off.
            runtime = self.runtime
            if runtime.trace_sink.active:
                runtime.trace("host.drop_crashed", str(self.me),
                              src=str(packet.src), payload_kind=packet.kind)
            runtime.counter("proto.host.drop_crashed").inc()
            return
        # Wire hardening: a payload whose checksum does not validate is
        # dropped before it touches *any* protocol state — a corrupted
        # message may not even be from who it claims to be from.
        if not checksum_ok(packet.payload):
            self._drop_corrupt(packet)
            return
        self._receive(packet)

    def _drop_corrupt(self, packet: Packet, known_uid: bool = False) -> None:
        """Drop and count a payload whose checksum failed.

        ``known_uid`` attributes the drop: a uid this host already
        accepted from the same sender means a mangled retransmission of
        known traffic (``dup_uid``); an unknown or absent uid means
        first-contact bit rot or an outright fabrication
        (``forged_uid``).  The unsuffixed counter is the aggregate.
        """
        runtime = self.runtime
        if runtime.trace_sink.active:
            runtime.trace("host.drop_corrupt", str(self.me),
                          src=str(packet.src), payload_kind=packet.kind,
                          known_uid=known_uid)
        runtime.counter("proto.wire.corrupt_dropped").inc()
        runtime.counter(
            "proto.wire.corrupt_dropped.dup_uid" if known_uid
            else "proto.wire.corrupt_dropped.forged_uid").inc()

    def _receive(self, packet: Packet) -> None:
        """The protocol's handling of one valid packet while up."""
        raise NotImplementedError

    # -- delivery ledger -----------------------------------------------------

    def _deliver(self, msg: DataMsg, supplier: HostId, now: float,
                 via_gapfill: bool) -> None:
        """Record the first delivery of ``msg`` (already stored)."""
        runtime = self.runtime
        seq = msg.seq
        self.deliveries.record(seq, msg.content, msg.created_at, now,
                               supplier, via_gapfill)
        if runtime.trace_sink.active:
            runtime.trace("host.deliver", str(self.me), seq=seq,
                          sender=str(supplier), gapfill=via_gapfill)
        deliver, delay = self._c_deliver, self._h_delay
        if deliver is None or delay is None:
            deliver = self._c_deliver = runtime.counter("proto.deliver")
            delay = self._h_delay = runtime.histogram("proto.delay")
        deliver.value += 1.0
        delay.observe(now - msg.created_at)
        if self._awaiting_recovery_delivery:
            # First delivery after a crash: the recovery-time metric the
            # chaos experiments report (crash -> first post-recovery data).
            self._awaiting_recovery_delivery = False
            elapsed = now - self._crashed_at
            runtime.histogram("proto.host.recovery_time").observe(elapsed)
            runtime.trace("host.recovery_delivery", str(self.me),
                          elapsed=elapsed, seq=seq)

    # -- the source's issue step ---------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next broadcast() call will use."""
        return self._next_seq

    def _issue(self, content: object, size_bits: int) -> DataMsg:
        """Number, store and self-deliver one new broadcast message.

        Issuing while crashed is allowed: the message sits in the stable
        outbox and hosts catch up once the source recovers.
        """
        runtime = self.runtime
        # One clock read: the message and the source's own record carry
        # the same creation time, so the source's delay is exactly 0.
        now = runtime.now()
        seq = self._next_seq
        self._next_seq += 1
        msg = DataMsg(seq, content, now, self.me, False, size_bits)
        self.store[seq] = msg
        self.deliveries.record(seq, content, now, now, self.me, False)
        if runtime.trace_sink.active:
            runtime.trace("source.broadcast", str(self.me), seq=seq,
                          while_crashed=self.crashed)
        runtime.counter("proto.source.broadcasts").inc()
        return msg

    # -- crash model ---------------------------------------------------------

    def _flushable_prefix(self) -> int:
        """Highest seqno stable storage holds right now: the contiguous
        delivered prefix (protocols subtract their write-buffer lag)."""
        return self.deliveries.contiguous_prefix()

    def _forget_above(self, stable: int) -> int:
        """Lose the volatile state above ``stable``; returns how many
        messages the crash lost."""
        for seq in [s for s in self.store if s > stable]:
            del self.store[seq]
        return self.deliveries.forget_above(stable)

    def crash(self) -> None:
        """Crash this host: volatile state is lost, silence follows.

        Per the paper's failure model the crash is *undetected*: nothing
        is sent, and peers must notice through their own timeouts.
        Periodic activity stops, everything above the stable prefix is
        lost, and inbound packets are dropped until :meth:`recover`.
        Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self._crashed_at = self.runtime.now()
        self._awaiting_recovery_delivery = False
        self.stop()
        # The flush point is monotone: a message that survived one crash
        # is on disk and cannot be lost by a later crash, so repeated
        # crashes never ratchet the prefix below its high-water mark.
        stable = self._flushed_prefix = max(self._flushed_prefix,
                                            self._flushable_prefix())
        lost = self._forget_above(stable)
        self.runtime.trace("host.crash", str(self.me), stable_prefix=stable,
                           lost=lost)
        self.runtime.counter("proto.host.crash").inc()

    def recover(self) -> None:
        """Recover from a crash: periodic activity restarts; no-op when
        the host is up."""
        if not self.crashed:
            return
        self.crashed = False
        self._awaiting_recovery_delivery = not self.is_source
        self.start()
        self.runtime.trace("host.recover", str(self.me),
                           down_for=self.runtime.now() - self._crashed_at)
        self.runtime.counter("proto.host.recover").inc()
