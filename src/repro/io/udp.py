"""Real-socket backend: a :class:`Transport` over asyncio UDP.

Each host gets one :class:`UdpTransport` bound to its own localhost UDP
socket; a static ``peers`` map (host id → socket address) plays the role
the routing tables play in-sim.  The service model is faithfully the
paper's: fire-and-forget unicast datagrams, no delivery feedback, no
topology information — and UDP genuinely loses, reorders, and (rarely)
duplicates, which is exactly the environment the protocol's checksum /
dedup / gap-fill machinery exists for.

Framing is a pickled ``(src_name, stamped_at, payload)`` triple.  The
wire payloads (:mod:`repro.core.wire`) are frozen dataclasses whose
checksums hash stable numeric tuples, so a checksum computed by the
sender verifies after unpickling on the receiver.

The chaos/adversary surface is identical to the sim port: ``tap`` /
``send_tap`` attributes with ``inject`` / ``send_raw`` as the
tap-bypassing re-entry points, and the same trace kinds and metric
names, so injectors and the analysis layer work unchanged on real
sockets.

Real-world hardening the sim never needs (every failure mode below is
converted into *datagram loss*, which the protocol already tolerates,
plus a counter so the harness can see it happening):

* **Transient send errors** (``ENOBUFS``/``EAGAIN``-style ``OSError``
  out of ``sendto``) are retried with exponential wall-clock backoff
  (``net.h2h.send_retry``); a send that exhausts its attempts is
  dropped and counted (``net.h2h.send_dropped``), never raised into
  the protocol machine.
* **Bind conflicts** at ``open()`` retry and fall back to an ephemeral
  port (``net.h2h.bind_retry``) so parallel harnesses never abort on a
  racing port claim.
* **Receive overload**: inbound datagrams queue in a bounded buffer
  drained on the next loop iteration; overflow is shed oldest-first
  (``net.h2h.recv_shed``) instead of letting an inbound burst starve
  every other host sharing the loop.
* **Late datagrams**: ``close()`` is idempotent, and frames still in
  flight when it lands are counted and dropped
  (``net.h2h.late_dropped``) rather than raised into the event loop.

Cost bits do not exist on real networks (no programmable servers to set
them), so UDP deployments run the protocol in
:class:`~repro.core.cluster.ClusterMode.STATIC` with an a-priori cluster
map — the paper's "manual configuration" deployment option.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from ..net.addressing import HostId
from ..net.message import Packet, Payload
from .aio import AsyncioRuntime, AsyncioTimer
from .interfaces import CounterLike, ReceiveFn, SendTapFn, TapFn

#: (ip, port) socket address.
SockAddr = Tuple[str, int]


class UdpTransport(asyncio.DatagramProtocol):
    """One host's attachment point: one UDP socket, a static peer map.

    Args:
        runtime: the shared wall-clock runtime (clock, timers, metrics).
        host_id: this host's name.
        peers: host id → socket address map (usually filled in after
            every deployment socket has bound, see
            :meth:`~repro.io.node.UdpBroadcastSystem.open`).
        max_send_attempts: total ``sendto`` tries per frame before the
            frame is dropped and counted.
        send_backoff: wall-clock seconds before the first retry;
            doubles per subsequent attempt.
        recv_queue_limit: bounded inbound buffer depth; overflow sheds
            the oldest queued datagram.
    """

    def __init__(
        self,
        runtime: AsyncioRuntime,
        host_id: HostId,
        peers: Dict[HostId, SockAddr],
        *,
        max_send_attempts: int = 3,
        send_backoff: float = 0.002,
        recv_queue_limit: int = 1024,
    ) -> None:
        if max_send_attempts < 1:
            raise ValueError("max_send_attempts must be at least 1")
        if send_backoff < 0 or recv_queue_limit < 1:
            raise ValueError("send_backoff must be >= 0 and "
                             "recv_queue_limit >= 1")
        self.runtime = runtime
        self.host_id = host_id
        self.peers = dict(peers)
        self._name = str(host_id)
        self._on_receive: Optional[ReceiveFn] = None
        #: optional inbound tap (chaos injection hook)
        self.tap: Optional[TapFn] = None
        #: optional outbound tap (adversary persona hook)
        self.send_tap: Optional[SendTapFn] = None
        self._sock: Optional[asyncio.DatagramTransport] = None
        #: the (host, port) actually bound by :meth:`open`; None before
        self.local_address: Optional[SockAddr] = None
        self._closed = False
        self._c_sent = None
        self._c_recv = None
        self._h_delay = None
        #: per-kind ``net.h2h.{sent,recv}.kind.<kind>`` counter handles
        self._sent_kind: Dict[str, CounterLike] = {}
        self._recv_kind: Dict[str, CounterLike] = {}
        #: datagrams that failed to parse (wrong pickle, bad frame shape)
        #: or named a sender missing from ``peers``
        self.malformed = 0
        #: datagrams that arrived after :meth:`close`
        self.late_drops = 0
        #: frames dropped after exhausting every send attempt
        self.send_drops = 0
        #: socket-level errors reported by the loop (ICMP unreachable...)
        self.socket_errors = 0
        self.max_send_attempts = max_send_attempts
        self.send_backoff = send_backoff
        #: in-flight retry timers, cancelled on close
        self._retry_timers: Set[AsyncioTimer] = set()
        #: bounded inbound buffer, drained via ``call_soon``
        self._recv_queue: Deque[Tuple[bytes, SockAddr]] = deque()
        self._recv_queue_limit = recv_queue_limit
        self._drain_scheduled = False

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
        addr = local_addr
        last_error: Optional[OSError] = None
        for _attempt in range(max(1, bind_attempts)):
            try:
                sock, _ = await loop.create_datagram_endpoint(
                    lambda: self, local_addr=addr)
            except OSError as exc:
                last_error = exc
                self.runtime.counter("net.h2h.bind_retry").inc()
                self.runtime.trace("net.bind_retry", self._name,
                                   addr=f"{addr[0]}:{addr[1]}",
                                   error=str(exc))
                addr = (local_addr[0], 0)  # let the OS pick instead
                continue
            self._sock = sock  # type: ignore[assignment]
            self.local_address = sock.get_extra_info("sockname")[:2]
            self._closed = False
            return self
        assert last_error is not None
        raise last_error

    def close(self) -> None:
        """Close the socket; idempotent.

        Pending inbound datagrams — queued locally or still crossing
        the loop — are dropped and counted, never raised: a datagram
        racing a close is ordinary in-flight traffic, not an error.
        """
        if self._closed:
            return
        self._closed = True
        for timer in self._retry_timers:
            timer.cancel()
        self._retry_timers.clear()
        if self._recv_queue:
            self.late_drops += len(self._recv_queue)
            self.runtime.counter("net.h2h.late_dropped").inc(
                len(self._recv_queue))
            self._recv_queue.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def connection_made(self, transport) -> None:  # pragma: no cover - asyncio
        self._sock = transport

    def connection_lost(self, exc) -> None:  # pragma: no cover - asyncio
        self._sock = None

    def error_received(self, exc: Exception) -> None:
        """Socket-level error from the loop (e.g. ICMP port unreachable).

        Counted and swallowed: to a fire-and-forget sender this is just
        evidence a datagram died, which UDP never promised otherwise.
        """
        self.socket_errors += 1
        self.runtime.counter("net.h2h.socket_error").inc()

    # -- Transport contract --------------------------------------------

    def set_receiver(self, callback: ReceiveFn) -> None:
        """Register the application callback for inbound packets."""
        self._on_receive = callback

    def local_time(self) -> float:
        """This host's clock: the shared runtime's protocol clock."""
        return self.runtime.now()

    def queue_length(self) -> int:
        """Locally queued inbound datagrams awaiting drain.

        The kernel send buffer is not observable; the receive side's
        bounded buffer is, and it is the congestion signal overload
        tooling cares about.
        """
        return len(self._recv_queue)

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
        if self._sock is None:
            return
        addr = self.peers.get(dst)
        if addr is None:
            raise KeyError(f"host {self.host_id} has no address for {dst}")
        now = self.runtime.now()
        frame = pickle.dumps((self._name, now, payload),
                             protocol=pickle.HIGHEST_PROTOCOL)
        runtime = self.runtime
        if runtime.trace_sink.active:
            runtime.trace("net.host_send", self._name, dst=str(dst),
                          payload_kind=payload.kind, bytes=len(frame))
        sent = self._c_sent
        if sent is None:
            sent = self._c_sent = runtime.counter("net.h2h.sent")
        sent.inc()
        kind = payload.kind
        kind_counter = self._sent_kind.get(kind)
        if kind_counter is None:
            kind_counter = self._sent_kind[kind] = runtime.counter(
                f"net.h2h.sent.kind.{kind}")
        kind_counter.inc()
        self._transmit(frame, addr, attempt=1)

    def _transmit(self, frame: bytes, addr: SockAddr, attempt: int) -> None:
        """One ``sendto`` try; transient ``OSError`` arms a backoff retry.

        asyncio's datagram transport normally buffers, but a saturated
        kernel buffer surfaces ``ENOBUFS``/``EAGAIN`` on some platforms;
        the retry ladder converts a transient stall into a short delay
        and a persistent one into counted datagram loss.
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
            time_scale = getattr(self.runtime, "time_scale", 1.0)

            def retry() -> None:
                self._retry_timers.discard(timer)
                self._transmit(frame, addr, attempt + 1)

            timer = self.runtime.start_timer(backoff_wall / time_scale,
                                             retry)
            self._retry_timers.add(timer)

    # -- receiving ------------------------------------------------------

    def datagram_received(self, data: bytes, addr: SockAddr) -> None:
        """Queue one raw frame; drained on the next loop iteration.

        The bounded queue decouples kernel-speed arrival from
        Python-speed protocol processing: a burst beyond the limit
        sheds the *oldest* queued frame (the protocol recovers lost
        data either way; fresher frames carry fresher state).
        """
        if self._closed:
            self.late_drops += 1
            self.runtime.counter("net.h2h.late_dropped").inc()
            return
        if len(self._recv_queue) >= self._recv_queue_limit:
            self._recv_queue.popleft()
            self.runtime.counter("net.h2h.recv_shed").inc()
        self._recv_queue.append((data, addr))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.runtime.call_soon(self._drain_recv)

    def _drain_recv(self) -> None:
        """Process every queued frame (one scheduled drain at a time)."""
        self._drain_scheduled = False
        while self._recv_queue:
            data, _addr = self._recv_queue.popleft()
            self._process_datagram(data)

    def _process_datagram(self, data: bytes) -> None:
        """Parse a frame into a :class:`Packet` and run the tap chain."""
        try:
            src_name, stamped_at, payload = pickle.loads(data)
            known = src_name in self.peers
        except Exception:
            known = False
        if not known:
            # Unparseable, or from a host outside the deployment.  An
            # unknown name never reaches HostId(): the wire must not
            # grow the intern table.
            self.malformed += 1
            self.runtime.counter("net.h2h.malformed").inc()
            return
        src = HostId(src_name)  # a peer's name: the interned id
        packet = Packet(src=src, dst=self.host_id, payload=payload,
                        sent_at=float(stamped_at),
                        stamped_at=float(stamped_at))
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
        if runtime.trace_sink.active:
            runtime.trace("net.host_recv", self._name, src=str(packet.src),
                          payload_kind=packet.kind, cost_bit=packet.cost_bit,
                          packet=packet.packet_id)
        recv = self._c_recv
        if recv is None:
            recv = self._c_recv = runtime.counter("net.h2h.recv")
            self._h_delay = runtime.histogram("net.h2h.delay")
        recv.inc()
        kind = packet.kind
        kind_counter = self._recv_kind.get(kind)
        if kind_counter is None:
            kind_counter = self._recv_kind[kind] = runtime.counter(
                f"net.h2h.recv.kind.{kind}")
        kind_counter.inc()
        self._h_delay.observe(  # type: ignore[union-attr]
            max(0.0, runtime.now() - packet.sent_at))
        if self._on_receive is not None:
            self._on_receive(packet)
