"""Control-message piggybacking (Section 6, optimizations).

The paper: "some control messages that are dispatched by the same host
at about the same time can be piggybacked in one packet."

:class:`PiggybackPort` implements this as a transparent port wrapper:

* control payloads bound for the same destination are held for a short
  ``window`` and flushed together as one :class:`ControlBundle` packet;
* a bundle pays the packet framing (``header_bits``) once instead of
  once per message, so both the packet count and the transmitted bits
  shrink;
* data messages are never delayed — and sending one *first flushes*
  any held control for that destination, preserving the relative order
  of, e.g., an AttachAck and the data that follows it;
* the receive side unpacks bundles before the protocol sees them, so
  :class:`~repro.core.host.BroadcastHost` is completely unaware of the
  optimization.

The wrapper composes with any port-like object (real ports or the
multi-source :class:`~repro.core.multisource.VirtualPort`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net import HostId, Packet, Payload, TuplePayload
from ..sim import Entry, Simulator
from .wire import KIND_CONTROL

#: default framing overhead assumed included in every payload's size
DEFAULT_HEADER_BITS = 400


class ControlBundle(TuplePayload):
    """Several control messages in one packet."""

    __slots__ = ()

    messages: Tuple[Payload, ...]
    header_bits: int

    kind = KIND_CONTROL

    def __new__(cls, messages: Tuple[Payload, ...],
                header_bits: int = DEFAULT_HEADER_BITS) -> "ControlBundle":
        return tuple.__new__(cls, (messages, header_bits))

    @property
    def size_bits(self) -> int:
        """One header plus each message's body (its size minus framing)."""
        body = sum(max(m.size_bits - self.header_bits, 1) for m in self.messages)
        return self.header_bits + body


class PiggybackPort:
    """A port wrapper that batches same-destination control messages."""

    def __init__(
        self,
        port,
        window: float = 0.05,
        header_bits: int = DEFAULT_HEADER_BITS,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if header_bits < 1:
            raise ValueError("header_bits must be positive")
        self._port = port
        self.window = window
        self.header_bits = header_bits
        self._pending: Dict[HostId, List[Payload]] = {}
        self._flush_events: Dict[HostId, Entry] = {}
        self._receiver: Optional[Callable[[Packet], None]] = None
        #: optional inbound tap (chaos injection hook); sees unbundled
        #: messages, exactly what the protocol machine would see
        self.tap: Optional[Callable[[Packet], bool]] = None
        #: optional outbound tap (adversary persona hook); sees payloads
        #: *before* batching, so substitutions piggyback normally
        self.send_tap: Optional[Callable[[HostId, Payload], bool]] = None
        port.set_receiver(self._on_packet)

    # -- port facade -------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        """The simulator this port belongs to."""
        return self._port.sim

    @property
    def host_id(self) -> HostId:
        """The host this port belongs to."""
        return self._port.host_id

    def local_time(self) -> float:
        """This host's wall-clock reading."""
        return self._port.local_time()

    def queue_length(self) -> int:
        """Outbound access-link queue depth (delegated to the real port)."""
        return self._port.queue_length()

    def set_receiver(self, callback: Callable[[Packet], None]) -> None:
        """Register the callback invoked for each inbound packet."""
        self._receiver = callback

    def send(self, dst: HostId, payload: Payload) -> None:
        """Send one individually addressed message (fire-and-forget)."""
        send_tap = self.send_tap
        if send_tap is not None and send_tap(dst, payload):
            return
        self.send_raw(dst, payload)

    def send_raw(self, dst: HostId, payload: Payload) -> None:
        """Batch/transmit, bypassing this wrapper's send tap."""
        if payload.kind != KIND_CONTROL:
            # Data is urgent; push held control first to keep ordering.
            self.flush(dst)
            self._port.send(dst, payload)
            return
        self._pending.setdefault(dst, []).append(payload)
        if dst not in self._flush_events:
            self._flush_events[dst] = self.sim.schedule(
                self.window, self.flush, dst)

    # -- batching ------------------------------------------------------------

    def flush(self, dst: HostId) -> None:
        """Send everything held for ``dst`` now."""
        event = self._flush_events.pop(dst, None)
        if event is not None:
            self.sim.try_cancel(event)
        held = self._pending.pop(dst, [])
        if not held:
            return
        if len(held) == 1:
            self._port.send(dst, held[0])
            return
        self.sim.metrics.counter("piggyback.bundles").inc()
        self.sim.metrics.counter("piggyback.bundled_messages").inc(len(held))
        self._port.send(dst, ControlBundle(tuple(held),
                                           header_bits=self.header_bits))

    def flush_all(self) -> None:
        """Flush every destination's held messages."""
        for dst in list(self._pending):
            self.flush(dst)

    # -- receive side ------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Deliver an (unbundled) packet to the host, bypassing the tap."""
        if self._receiver is not None:
            self._receiver(packet)

    def _deliver(self, packet: Packet) -> None:
        tap = self.tap
        if tap is not None and tap(packet):
            return
        self.inject(packet)

    def _on_packet(self, packet: Packet) -> None:
        if self._receiver is None:
            return
        payload = packet.payload
        if not isinstance(payload, ControlBundle):
            self._deliver(packet)
            return
        for inner in payload.messages:
            self._deliver(Packet(
                src=packet.src, dst=packet.dst, payload=inner,
                cost_bit=packet.cost_bit, hops=packet.hops,
                sent_at=packet.sent_at, stamped_at=packet.stamped_at,
                packet_id=packet.packet_id))
