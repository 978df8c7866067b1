"""The paper's *basic algorithm* (Section 1): per-host unicast + acks.

"A simple and obvious way to broadcast a message is to send a
separately addressed copy of it to every host in the network and repeat
this process until an acknowledgment is received."

Characteristics the experiments measure against:

* the source transmits one copy per destination — at least k−1 and
  usually far more inter-cluster transmissions per message;
* every retransmission (recovery) comes from the source, however
  "remote" the needy host is;
* during a partition the source wastefully keeps retransmitting to
  unreachable hosts;
* all copies funnel through the source's access link (congestion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.delivery import DeliverCallback
from ..core.wire import KIND_CONTROL, DataMsg
from ..io.interfaces import Runtime, Transport
from ..io.simbackend import SimDeployment
from ..net import BuiltTopology, HostId, Packet, TuplePayload
from .common import BaselineHostBase


class AckMsg(TuplePayload):
    """Receiver's acknowledgment for one data message."""

    __slots__ = ()

    seq: int
    sender: HostId
    size_bits: int

    kind = KIND_CONTROL

    def __new__(cls, seq: int, sender: HostId, size_bits: int = 1_000) -> "AckMsg":
        return tuple.__new__(cls, (seq, sender, size_bits))


@dataclass(frozen=True)
class BasicConfig:
    """Tuning for the basic algorithm."""

    #: how often the source retransmits unacknowledged copies
    retry_period: float = 2.0
    #: cap on retransmissions per destination per retry tick
    retry_batch_limit: int = 20
    data_size_bits: int = 8_000
    ack_size_bits: int = 1_000
    #: a crashing receiver keeps its contiguous delivered prefix minus
    #: this many messages (same stable-storage model as
    #: :attr:`repro.core.config.ProtocolConfig.crash_stable_lag`)
    crash_stable_lag: int = 0

    def __post_init__(self) -> None:
        if self.retry_period <= 0:
            raise ValueError("retry_period must be positive")
        if self.retry_batch_limit < 1:
            raise ValueError("retry_batch_limit must be at least 1")
        if self.crash_stable_lag < 0:
            raise ValueError("crash_stable_lag must be >= 0")


class BasicReceiver(BaselineHostBase):
    """Accepts data, always acks (acks themselves can be lost)."""

    def __init__(self, runtime: Runtime, port: Transport, source: HostId,
                 config: BasicConfig,
                 deliver_callback: Optional[DeliverCallback] = None) -> None:
        super().__init__(runtime, port, deliver_callback)
        self.source = source
        self.config = config

    def _flushable_prefix(self) -> int:
        return (self.deliveries.contiguous_prefix()
                - self.config.crash_stable_lag)

    def _receive(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, DataMsg):
            self.accept_data(payload, packet.src)
            self.port.send(self.source, AckMsg(
                seq=payload.seq, sender=self.me,
                size_bits=self.config.ack_size_bits))


class BasicSource(BaselineHostBase):
    """The source: unicasts to each host, retries until acked.

    A crash stops the retries and drops inbound acks.  The outbox
    (``store``), sequence counter and unacked set live on stable
    storage — the same model as the tree protocol's
    :class:`~repro.core.source.SourceHost` — so recovery resumes the
    retries exactly where they left off.
    """

    is_source = True

    def __init__(self, runtime: Runtime, port: Transport,
                 receivers: List[HostId], config: BasicConfig,
                 deliver_callback: Optional[DeliverCallback] = None) -> None:
        super().__init__(runtime, port, deliver_callback)
        self.receivers = sorted(h for h in receivers if h != self.me)
        self.config = config
        #: outstanding (host, seq) pairs awaiting acknowledgment
        self.unacked: Set[Tuple[HostId, int]] = set()
        self._tasks = [self.runtime.start_periodic(
            config.retry_period, self._retry_tick,
            jitter=config.retry_period * 0.1,
            rng_stream=f"basic.{self.me}.retry", name="basic_retry")]

    def broadcast(self, content: object = None) -> int:
        """Send one new message: a separately addressed copy per host."""
        msg = self._issue(content, self.config.data_size_bits)
        seq = msg.seq
        for host in self.receivers:
            if not self.crashed:
                self.port.send(host, msg)
            self.unacked.add((host, seq))
        return seq

    def _receive(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, AckMsg):
            self.unacked.discard((payload.sender, payload.seq))

    def _retry_tick(self) -> None:
        if not self.unacked:  # nothing to retry: register no counter
            return
        runtime = self.runtime
        retransmissions = runtime.counter("basic.retransmissions")
        trace_sink, send, me = runtime.trace_sink, self.port.send, self.me.name
        limit = self.config.retry_batch_limit
        budget: Dict[HostId, int] = {}
        copies: Dict[int, DataMsg] = {}  # seq -> its one gap-fill copy
        for host, seq in sorted(self.unacked):  # a HostId sorts as its name
            sent = budget.get(host, 0)
            if sent >= limit:
                continue
            budget[host] = sent + 1
            msg = copies.get(seq)
            if msg is None:
                stored = self.store[seq]
                msg = copies[seq] = DataMsg(
                    stored.seq, stored.content, stored.created_at,
                    stored.origin, True, self.config.data_size_bits)
            send(host, msg)
            retransmissions.value += 1.0
            if trace_sink.active:
                runtime.trace("basic.retry", me, target=host.name, seq=seq)


class BasicBroadcastSystem(SimDeployment):
    """The basic algorithm deployed over a topology."""

    def __init__(
        self,
        built: BuiltTopology,
        config: Optional[BasicConfig] = None,
        source: Optional[HostId] = None,
        deliver_callback: Optional[DeliverCallback] = None,
    ) -> None:
        super().__init__(built, source)
        self.config = config or BasicConfig()
        for host_id in built.hosts:
            port = self.network.host_port(host_id)
            if host_id == self.source_id:
                self.hosts[host_id] = BasicSource(
                    self.runtime, port, built.hosts, self.config, deliver_callback)
            else:
                self.hosts[host_id] = BasicReceiver(
                    self.runtime, port, self.source_id, self.config, deliver_callback)
