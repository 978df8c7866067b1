"""Drivers for the real-time backend: asyncio timers and loopback UDP."""

from __future__ import annotations

import asyncio
import socket
from time import perf_counter
from typing import Any, Dict, Tuple

from repro.core import DataMsg, InfoMsg, SeqnoSet
from repro.io import AsyncioRuntime, UdpTransport
from repro.net import HostId

from . import per_op

A, B = HostId("a"), HostId("b")


def aio_timer(budget_s: float) -> Dict[str, float]:
    """Arm one-shot timers through ``AsyncioRuntime`` and let them fire."""
    timers = 2_000

    async def arm_and_fire() -> None:
        runtime = AsyncioRuntime(seed=1, trace=False)
        fired = asyncio.get_running_loop().create_future()
        left = [timers]

        def fire() -> None:
            left[0] -= 1
            if not left[0]:
                fired.set_result(None)

        for _ in range(timers):
            runtime.start_timer(0.0, fire)
        await fired

    return {"io.aio.timer_us":
            per_op(budget_s, lambda: None,
                   lambda _: asyncio.run(arm_and_fire()), timers) * 1e6}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def _pair(trace: bool = False) -> Tuple[AsyncioRuntime, UdpTransport, UdpTransport]:
    """Two transports on loopback that know each other's address."""
    runtime = AsyncioRuntime(seed=1, trace=trace)
    peers = {A: ("127.0.0.1", _free_port()), B: ("127.0.0.1", _free_port())}
    a = UdpTransport(runtime, A, peers=peers)
    b = UdpTransport(runtime, B, peers=peers)
    await a.open(peers[A])
    await b.open(peers[B])
    return runtime, a, b


def _data(seq: int = 1) -> DataMsg:
    return DataMsg(seq=seq, content="0123456789abcdef", created_at=1.0,
                   origin=A, size_bits=4_000)


async def _exchange(frames: int, window: int) -> float:
    """Seconds to move ``frames`` data frames a -> b with ``window`` of
    them unacknowledged; b acknowledges each by echoing it."""
    _, a, b = await _pair()
    done = asyncio.get_running_loop().create_future()
    payload = _data()
    state = {"sent": 0, "echoed": 0}

    def send() -> None:
        state["sent"] += 1
        a.send(B, payload)

    def on_echo(_: Any) -> None:
        state["echoed"] += 1
        if state["sent"] < frames:
            send()
        elif state["echoed"] == frames:
            done.set_result(None)

    b.set_receiver(lambda packet: b.send(A, packet.payload))
    a.set_receiver(on_echo)
    started = perf_counter()
    for _ in range(window):
        send()
    try:
        await asyncio.wait_for(done, 30.0)
    finally:
        a.close()
        b.close()
    return perf_counter() - started


def udp_exchange(budget_s: float) -> Dict[str, float]:
    """Ping-pong (one frame in flight) gives the round trip; a window of
    32 gives the frame rate the framing + socket path sustains.  Both
    count the echo, so a frame is two datagrams."""
    frames = 1_000
    times: Dict[int, float] = {}
    for window in (1, 32):
        times[window] = per_op(
            budget_s, lambda: None,
            lambda _, w=window: asyncio.run(_exchange(frames, w)), frames)
    return {"io.udp.roundtrip_us": times[1] * 1e6,
            "io.udp.frames_per_s": 2.0 / times[32]}


def udp_frame_bytes(budget_s: float) -> Dict[str, float]:
    """Datagram sizes of one data message and one INFO advertisement
    carrying 120 sequence numbers, as the sender's trace reports them."""
    async def sizes() -> Tuple[int, int]:
        runtime, a, b = await _pair(trace=True)
        a.send(B, _data())
        a.send(B, InfoMsg(sender=A, info=SeqnoSet.range(1, 120), parent=B,
                          stamp=1.0))
        a.close()
        b.close()
        data, info = (record["bytes"] for record in
                      runtime.trace_sink.records(kind="net.host_send"))
        return data, info

    data, info = asyncio.run(sizes())
    return {"io.udp.data_frame_bytes": float(data),
            "io.udp.info_frame_bytes": float(info)}


DRIVERS = (aio_timer, udp_exchange, udp_frame_bytes)
