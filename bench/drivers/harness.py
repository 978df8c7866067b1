"""An in-memory ``Runtime``/``Transport`` pair for single-host drivers.

Both satisfy the :mod:`repro.io.interfaces` contracts, so a protocol
machine runs on them unchanged — but nothing happens unless the driver
makes it happen: the clock moves only when the driver moves it, timers
never fire, periodic tasks tick only when the driver calls them, and
sends are counted and dropped.  That leaves exactly the host's own
handler code to time.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.net import HostId, Packet
from repro.sim.metrics import MetricsRegistry
from repro.sim.trace import Tracer


class _Timer:
    def __init__(self) -> None:
        self.armed = True

    def cancel(self) -> None:
        self.armed = False


class _Periodic:
    def __init__(self, name: str, callback: Callable[[], None]) -> None:
        self.name = name
        self.callback = callback
        self.running = False

    def start(self) -> "_Periodic":
        self.running = True
        return self

    def stop(self) -> None:
        self.running = False


class _Clock:
    """The one attribute Tracer and MetricsRegistry read: ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


class ManualRuntime:
    """A :class:`repro.io.interfaces.Runtime` driven entirely by hand."""

    def __init__(self) -> None:
        self.clock = _Clock()
        self.trace_sink = Tracer(self.clock, enabled=False)  # type: ignore[arg-type]
        self.metrics = MetricsRegistry(self.clock)  # type: ignore[arg-type]
        self.trace = self.trace_sink.emit
        self.counter = self.metrics.counter
        self.histogram = self.metrics.histogram
        self.periodics: Dict[str, _Periodic] = {}

    def now(self) -> float:
        return self.clock.now

    def advance(self, seconds: float) -> None:
        self.clock.now += seconds

    def rng(self, name: str) -> random.Random:
        return random.Random(name)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        pass

    def start_timer(self, delay: float, callback: Callable[[], None]) -> _Timer:
        return _Timer()

    def cancel_timer(self, handle: Optional[_Timer]) -> None:
        if handle is not None:
            handle.cancel()

    def start_periodic(self, period: float, callback: Callable[[], None], *,
                       jitter: float = 0.0, rng_stream: str = "",
                       name: str = "") -> _Periodic:
        task = self.periodics[name] = _Periodic(name, callback)
        return task

    def tick(self, name: str) -> None:
        """Fire the named periodic task once, as a backend would."""
        self.periodics[name].callback()


class SinkTransport:
    """A :class:`repro.io.interfaces.Transport` that counts and drops sends."""

    def __init__(self, runtime: ManualRuntime, host_id: HostId) -> None:
        self.runtime = runtime
        self.host_id = host_id
        self.tap = None
        self.send_tap = None
        self.sent: List[Any] = []
        self._receiver: Optional[Callable[[Packet], None]] = None

    def set_receiver(self, callback: Callable[[Packet], None]) -> None:
        self._receiver = callback

    def send(self, dst: HostId, payload: Any) -> None:
        self.sent.append(payload)

    send_raw = send

    def inject(self, packet: Packet) -> None:
        assert self._receiver is not None
        self._receiver(packet)

    def local_time(self) -> float:
        return self.runtime.now()

    def queue_length(self) -> int:
        return 0

    def packet_from(self, src: HostId, payload: Any) -> Packet:
        """An inbound packet as a cheap-link delivery would present it."""
        now = self.runtime.now()
        return Packet(src=src, dst=self.host_id, payload=payload,
                      sent_at=now, stamped_at=now)
