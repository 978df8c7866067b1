"""Real-socket backend: a :class:`Transport` over a non-blocking UDP socket.

Each host gets one :class:`UdpTransport` bound to its own localhost UDP
socket; a static ``peers`` map (host id → socket address) plays the role
the routing tables play in-sim.  The service model is faithfully the
paper's: fire-and-forget unicast datagrams, no delivery feedback, no
topology information — and UDP genuinely loses, reorders, and (rarely)
duplicates, which is exactly the environment the protocol's checksum /
dedup / gap-fill machinery exists for.

Framing is the binary codec of :mod:`repro.core.wire`
(:func:`~repro.core.wire.encode_frame` /
:func:`~repro.core.wire.decode_frame`): versioned, length-checked, no
code loaded from the wire, and every host id an index into the
deployment's closed :class:`~repro.core.wire.HostTable` (built from
``peers``), so a name arriving on the wire never reaches ``HostId()``.

The transport owns its socket rather than going through asyncio's
datagram transport: one ``loop.add_reader`` callback reads the socket
until it is empty (at most ``recv_batch`` datagrams per wakeup) and
hands each datagram to the protocol in the same callback — no
per-datagram queue, no extra loop iteration, no second wakeup.  Sends
are a direct ``sendto``.

The chaos/adversary surface is identical to the sim port: ``tap`` /
``send_tap`` attributes with ``inject`` / ``send_raw`` as the
tap-bypassing re-entry points, and the same trace kinds and metric
names, so injectors and the analysis layer work unchanged on real
sockets.

Real-world hardening the sim never needs (every failure mode below is
converted into *datagram loss*, which the protocol already tolerates,
plus a counter so the harness can see it happening):

* **Malformed frames** — truncated, oversized, another wire version or
  host table, an unknown tag or host index — are dropped and counted
  (``net.h2h.malformed``), never raised into the loop.
* **Transient send errors** (``ENOBUFS``/``EAGAIN``-style ``OSError``
  out of ``sendto``) are retried with exponential wall-clock backoff
  (``net.h2h.send_retry``); a send that exhausts its attempts is
  dropped and counted (``net.h2h.send_dropped``), never raised into
  the protocol machine.
* **Bind conflicts** at ``open()`` retry and fall back to an ephemeral
  port (``net.h2h.bind_retry``) so parallel harnesses never abort on a
  racing port claim.
* **Receive overload**: a wakeup handles at most ``recv_batch``
  datagrams, so an inbound burst cannot starve every other host sharing
  the loop; the rest wait in the kernel's socket buffer for the next
  wakeup, and what overflows that buffer is ordinary UDP loss.
* **Late datagrams**: ``close()`` is idempotent, and frames handed in
  after it lands are counted and dropped (``net.h2h.late_dropped``)
  rather than raised into the event loop.

Cost bits do not exist on real networks (no programmable servers to set
them), so UDP deployments run the protocol in
:class:`~repro.core.cluster.ClusterMode.STATIC` with an a-priori cluster
map — the paper's "manual configuration" deployment option.
"""

from __future__ import annotations

import asyncio
import socket
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set, Tuple

from ..core.wire import FrameError, HostTable, decode_frame, encode_frame
from ..net.addressing import HostId
from ..net.message import Packet, Payload
from .aio import AsyncioRuntime, AsyncioTimer
from .interfaces import CounterLike, ReceiveFn, SendTapFn, TapFn

#: (ip, port) socket address.
SockAddr = Tuple[str, int]

#: receive buffer size: the largest UDP payload fits
_MAX_DATAGRAM = 65536


class UdpTransport:
    """One host's attachment point: one UDP socket, a static peer map.

    Args:
        runtime: the shared wall-clock runtime (clock, timers, metrics).
        host_id: this host's name.
        peers: host id → socket address map (usually filled in after
            every deployment socket has bound, see :meth:`set_peers`).
        max_send_attempts: total ``sendto`` tries per frame before the
            frame is dropped and counted.
        send_backoff: wall-clock seconds before the first retry;
            doubles per subsequent attempt.
    """

    #: most datagrams handled per socket wakeup before the loop gets a
    #: turn, so one busy socket cannot starve the hosts sharing the loop
    recv_batch = 64

    def __init__(
        self,
        runtime: AsyncioRuntime,
        host_id: HostId,
        peers: Mapping[HostId, SockAddr],
        *,
        max_send_attempts: int = 3,
        send_backoff: float = 0.002,
    ) -> None:
        if max_send_attempts < 1:
            raise ValueError("max_send_attempts must be at least 1")
        if send_backoff < 0:
            raise ValueError("send_backoff must be >= 0")
        self.runtime = runtime
        self.host_id = host_id
        self._name = str(host_id)
        self.set_peers(peers)
        self._on_receive: Optional[ReceiveFn] = None
        #: optional inbound tap (chaos injection hook)
        self.tap: Optional[TapFn] = None
        #: optional outbound tap (adversary persona hook)
        self.send_tap: Optional[SendTapFn] = None
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._fd = -1
        #: datagrams are read into this and copied out before handling
        self._buffer = bytearray(_MAX_DATAGRAM)
        #: the (host, port) actually bound by :meth:`open`; None before
        self.local_address: Optional[SockAddr] = None
        self._closed = False
        self._c_sent = runtime.counter("net.h2h.sent")
        self._c_recv = runtime.counter("net.h2h.recv")
        self._c_sent_bytes = runtime.counter("net.h2h.sent.bytes")
        self._c_recv_bytes = runtime.counter("net.h2h.recv.bytes")
        self._h_delay = runtime.histogram("net.h2h.delay")
        #: per-kind ``net.h2h.{sent,recv}.kind.<kind>`` counter handles
        self._sent_kind: Dict[str, CounterLike] = {}
        self._recv_kind: Dict[str, CounterLike] = {}
        #: datagrams that were not a well-formed frame for this deployment
        self.malformed = 0
        #: datagrams handed in after :meth:`close`
        self.late_drops = 0
        #: frames dropped after exhausting every send attempt
        self.send_drops = 0
        #: socket-level errors on receive (ICMP unreachable...)
        self.socket_errors = 0
        self.max_send_attempts = max_send_attempts
        self.send_backoff = send_backoff
        #: in-flight retry timers, cancelled on close
        self._retry_timers: Set[AsyncioTimer] = set()

    # -- peers ------------------------------------------------------------

    @property
    def peers(self) -> Mapping[HostId, SockAddr]:
        """Read-only view of the peer map; change it with :meth:`set_peers`."""
        return MappingProxyType(self._peers)

    def set_peers(self, peers: Mapping[HostId, SockAddr]) -> None:
        """Replace the peer map and rebuild the frame host table.

        The table holds this host and every peer; both ends of a link
        must hold the same hosts, or each drops the other's frames as
        malformed.
        """
        self._peers: Dict[HostId, SockAddr] = dict(peers)
        self._table = HostTable((self.host_id, *self._peers))

    # -- socket lifecycle ----------------------------------------------

    async def open(self, local_addr: SockAddr,
                   bind_attempts: int = 5) -> "UdpTransport":
        """Bind the UDP socket on ``local_addr`` and start receiving.

        A bind conflict (another process raced us to the port, or a
        previous run's socket lingers) is retried up to
        ``bind_attempts`` times, falling back to an OS-picked ephemeral
        port after the first failure; each retry bumps
        ``net.h2h.bind_retry``.
        """
        loop = asyncio.get_running_loop()
        family = socket.AF_INET6 if ":" in local_addr[0] else socket.AF_INET
        addr = local_addr
        last_error: Optional[OSError] = None
        for _attempt in range(max(1, bind_attempts)):
            sock = socket.socket(family, socket.SOCK_DGRAM)
            try:
                sock.setblocking(False)
                sock.bind(addr)
            except OSError as exc:
                sock.close()
                last_error = exc
                self.runtime.counter("net.h2h.bind_retry").inc()
                self.runtime.trace("net.bind_retry", self._name,
                                   addr=f"{addr[0]}:{addr[1]}",
                                   error=str(exc))
                addr = (local_addr[0], 0)  # let the OS pick instead
                continue
            self._sock, self._loop, self._fd = sock, loop, sock.fileno()
            self.local_address = sock.getsockname()[:2]
            self._closed = False
            loop.add_reader(self._fd, self._on_readable)
            return self
        assert last_error is not None
        raise last_error

    def close(self) -> None:
        """Close the socket; idempotent.

        Datagrams still in the socket buffer go with it: a datagram
        racing a close is ordinary in-flight loss, not an error.
        """
        if self._closed:
            return
        self._closed = True
        for timer in self._retry_timers:
            timer.cancel()
        self._retry_timers.clear()
        if self._sock is not None:
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.remove_reader(self._fd)
            self._sock.close()
            self._sock = None

    # -- Transport contract --------------------------------------------

    def set_receiver(self, callback: ReceiveFn) -> None:
        """Register the application callback for inbound packets."""
        self._on_receive = callback

    def local_time(self) -> float:
        """This host's clock: the shared runtime's protocol clock."""
        return self.runtime.now()

    def queue_length(self) -> int:
        """Always 0: no datagram waits in this process.

        Datagrams are handled in the wakeup that reads them; the kernel
        socket buffers, the only queues left, are not observable.
        """
        return 0

    def send(self, dst: HostId, payload: Payload) -> None:
        """Fire-and-forget unicast (runs the send tap first)."""
        if dst == self.host_id:
            raise ValueError(f"host {self.host_id} cannot send to itself")
        send_tap = self.send_tap
        if send_tap is not None and send_tap(dst, payload):
            return
        self.send_raw(dst, payload)

    def send_raw(self, dst: HostId, payload: Payload) -> None:
        """Frame and transmit, bypassing the send tap.

        Sends before ``open()`` or after ``close()`` are dropped
        silently — indistinguishable from datagram loss, which the
        protocol tolerates by design.
        """
        sock = self._sock
        if sock is None:
            return
        addr = self._peers.get(dst)
        if addr is None:
            raise KeyError(f"host {self.host_id} has no address for {dst}")
        runtime = self.runtime
        frame = encode_frame(self._table, self.host_id, runtime.now(), payload)
        kind = payload.kind
        if runtime.trace_sink.active:
            runtime.trace("net.host_send", self._name, dst=str(dst),
                          payload_kind=kind, bytes=len(frame))
        # Handles are bumped in place (what ``inc`` does), as links do.
        self._c_sent.value += 1.0
        self._c_sent_bytes.value += len(frame)
        kind_counter = self._sent_kind.get(kind)
        if kind_counter is None:
            kind_counter = self._sent_kind[kind] = runtime.counter(
                f"net.h2h.sent.kind.{kind}")
        kind_counter.value += 1.0
        self._transmit(frame, addr, attempt=1)

    def _transmit(self, frame: bytes, addr: SockAddr, attempt: int) -> None:
        """One ``sendto`` try; transient ``OSError`` arms a backoff retry.

        A full kernel send buffer surfaces as ``EAGAIN``/``ENOBUFS``;
        the retry ladder turns a transient stall into a short delay and
        a persistent one into counted datagram loss.
        """
        sock = self._sock
        if sock is None:
            return  # closed while a retry was pending: counted loss
        try:
            sock.sendto(frame, addr)
        except OSError as exc:
            if attempt >= self.max_send_attempts:
                self.send_drops += 1
                self.runtime.counter("net.h2h.send_dropped").inc()
                self.runtime.trace("net.send_dropped", self._name,
                                   attempts=attempt, error=str(exc))
                return
            self.runtime.counter("net.h2h.send_retry").inc()
            backoff_wall = self.send_backoff * (2 ** (attempt - 1))

            def retry() -> None:
                self._retry_timers.discard(timer)
                self._transmit(frame, addr, attempt + 1)

            timer = self.runtime.start_timer(
                backoff_wall / self.runtime.time_scale, retry)
            self._retry_timers.add(timer)

    # -- receiving ------------------------------------------------------

    def _on_readable(self) -> None:
        """Read and handle up to ``recv_batch`` datagrams, then yield."""
        buffer = self._buffer
        for _ in range(self.recv_batch):
            sock = self._sock
            if sock is None:
                return  # a handler closed this transport
            try:
                size = sock.recv_into(buffer)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.error_received(exc)
                return
            self.receive_frame(buffer[:size])

    def error_received(self, exc: Exception) -> None:
        """Socket-level error on receive (e.g. ICMP port unreachable).

        Counted and swallowed: to a fire-and-forget sender this is just
        evidence a datagram died, which UDP never promised otherwise.
        """
        self.socket_errors += 1
        self.runtime.counter("net.h2h.socket_error").inc()

    def receive_frame(self, frame: bytes) -> None:
        """Handle one datagram: decode it and run the tap chain.

        This is what the socket reader calls for every datagram it
        reads; a test or injector may call it with any bytes.  A frame
        that does not decode against this deployment's host table —
        garbage, truncated, from a host outside the table — is counted
        in ``net.h2h.malformed`` and dropped.
        """
        if self._closed:
            self.late_drops += 1
            self.runtime.counter("net.h2h.late_dropped").inc()
            return
        try:
            src, stamped_at, payload = decode_frame(self._table, frame)
        except FrameError:
            self.malformed += 1
            self.runtime.counter("net.h2h.malformed").inc()
            return
        self._c_recv_bytes.value += len(frame)
        packet = Packet(src, self.host_id, payload, False, None, stamped_at,
                        stamped_at)
        tap = self.tap
        if tap is not None and tap(packet):
            return
        self.inject(packet)

    def inject(self, packet: Packet) -> None:
        """Deliver ``packet`` to the host, bypassing the tap.

        Injections landing after :meth:`close` (a chaos-delayed copy
        outliving its deployment) are counted and dropped.
        """
        if self._closed:
            self.late_drops += 1
            self.runtime.counter("net.h2h.late_dropped").inc()
            return
        runtime = self.runtime
        kind = packet.payload.kind
        if runtime.trace_sink.active:
            runtime.trace("net.host_recv", self._name, src=str(packet.src),
                          payload_kind=kind, cost_bit=packet.cost_bit,
                          packet=packet.packet_id)
        self._c_recv.value += 1.0
        kind_counter = self._recv_kind.get(kind)
        if kind_counter is None:
            kind_counter = self._recv_kind[kind] = runtime.counter(
                f"net.h2h.recv.kind.{kind}")
        kind_counter.value += 1.0
        self._h_delay.observe(max(0.0, runtime.now() - packet.sent_at))
        if self._on_receive is not None:
            self._on_receive(packet)
