"""UdpTransport over real localhost sockets, and sim-vs-UDP parity."""

import asyncio
import time

import pytest

from repro.io import AsyncioRuntime, UdpTransport
from repro.io.crosscheck import CrosscheckScenario, crosscheck
from repro.net import HostId, RawPayload


async def open_pair(runtime):
    """Two transports bound to ephemeral localhost ports, peered."""
    a, b = HostId("a"), HostId("b")
    ta = UdpTransport(runtime, a, peers={})
    tb = UdpTransport(runtime, b, peers={})
    await ta.open(("127.0.0.1", 0))
    await tb.open(("127.0.0.1", 0))
    addresses = {
        a: ta.local_address,
        b: tb.local_address,
    }
    ta.peers.update(addresses)
    tb.peers.update(addresses)
    return ta, tb


async def wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        await asyncio.sleep(0.005)
    return condition()


def run(coro_fn):
    async def main():
        runtime = AsyncioRuntime(seed=0, time_scale=0.05)
        ta, tb = await open_pair(runtime)
        try:
            return await coro_fn(runtime, ta, tb)
        finally:
            ta.close()
            tb.close()
    return asyncio.run(main())


class TestUdpTransportUnit:
    def test_roundtrip_preserves_payload_and_addressing(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            ta.send(HostId("b"), RawPayload(content="ping", size_bits=64))
            assert await wait_for(lambda: got)
            return got

        got = run(scenario)
        packet = got[0]
        assert packet.src == HostId("a")
        assert packet.dst == HostId("b")
        assert packet.payload.content == "ping"
        assert packet.payload.size_bits == 64
        assert packet.sent_at == packet.stamped_at

    def test_send_accounting_matches_sim_port_names(self):
        async def scenario(runtime, ta, tb):
            tb.set_receiver(lambda packet: None)
            ta.send(HostId("b"), RawPayload())
            await wait_for(
                lambda: runtime.metrics.counter("net.h2h.recv").value == 1)
            return (
                runtime.metrics.counter("net.h2h.sent").value,
                runtime.metrics.counter("net.h2h.sent.kind.raw").value,
                runtime.metrics.counter("net.h2h.recv").value,
                len(runtime.trace_sink.records(kind="net.host_send")),
                len(runtime.trace_sink.records(kind="net.host_recv")),
            )

        assert run(scenario) == (1, 1, 1, 1, 1)

    def test_self_send_rejected_unknown_peer_raises(self):
        async def scenario(runtime, ta, tb):
            with pytest.raises(ValueError, match="cannot send to itself"):
                ta.send(HostId("a"), RawPayload())
            with pytest.raises(KeyError, match="no address"):
                ta.send(HostId("stranger"), RawPayload())
            return True

        assert run(scenario)

    def test_send_after_close_is_silent_loss(self):
        async def scenario(runtime, ta, tb):
            ta.close()
            ta.send(HostId("b"), RawPayload())  # dropped, no error
            return runtime.metrics.counter("net.h2h.sent").value

        assert run(scenario) == 0

    def test_malformed_datagram_counted_not_raised(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            tb.datagram_received(b"not a frame", ("127.0.0.1", 1))
            # Frames queue and drain on the next loop iteration.
            await wait_for(lambda: tb.malformed == 1)
            return tb.malformed, got, \
                runtime.metrics.counter("net.h2h.malformed").value

        malformed, got, counted = run(scenario)
        assert malformed == 1
        assert counted == 1
        assert got == []

    def test_frame_from_unknown_sender_is_malformed(self):
        from repro.net.addressing import _HOST_IDS

        stranger = "never-a-peer-of-this-deployment"

        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            tb.datagram_received(frame_for(src_name=stranger),
                                 ("127.0.0.1", 1))
            tb.datagram_received(frame_for(src_name="a"), ("127.0.0.1", 1))
            await wait_for(lambda: got)
            return tb.malformed, [p.src for p in got], \
                runtime.metrics.counter("net.h2h.malformed").value

        malformed, sources, counted = run(scenario)
        assert (malformed, counted) == (1, 1)
        assert sources == [HostId("a")]
        assert sources[0] is HostId("a")
        assert stranger not in _HOST_IDS  # the wire grew no HostId

    def test_tap_consumes_and_inject_reenters(self):
        async def scenario(runtime, ta, tb):
            got, tapped = [], []
            tb.set_receiver(got.append)
            tb.tap = lambda packet: tapped.append(packet) or True
            ta.send(HostId("b"), RawPayload())
            assert await wait_for(lambda: tapped)
            assert got == []  # tap consumed it
            tb.inject(tapped[0])  # re-entry bypasses the tap
            return len(got), len(tapped)

        assert run(scenario) == (1, 1)

    def test_send_tap_consumes_and_send_raw_bypasses(self):
        async def scenario(runtime, ta, tb):
            got, outbound = [], []
            tb.set_receiver(got.append)
            ta.send_tap = lambda dst, payload: outbound.append(dst) or True
            ta.send(HostId("b"), RawPayload())
            assert outbound == [HostId("b")]
            ta.send_raw(HostId("b"), RawPayload())  # bypasses the tap
            assert await wait_for(lambda: got)
            return len(got), len(outbound)

        assert run(scenario) == (1, 1)


def frame_for(dst_name="b", src_name="a"):
    """A well-formed wire frame, as ``send_raw`` would emit it."""
    import pickle

    return pickle.dumps((src_name, 0.0, RawPayload()),
                        protocol=pickle.HIGHEST_PROTOCOL)


class TestUdpTransportHardening:
    def test_close_is_idempotent(self):
        async def scenario(runtime, ta, tb):
            ta.close()
            ta.close()  # second close is a no-op, not an error
            ta.close()
            return True

        assert run(scenario)

    def test_late_datagrams_after_close_counted_and_dropped(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            tb.close()
            # A datagram still crossing the loop when close() landed.
            tb.datagram_received(frame_for(), ("127.0.0.1", 1))
            # A chaos-delayed injection outliving the deployment.
            import pickle

            src, _at, payload = pickle.loads(frame_for())
            from repro.net import Packet

            tb.inject(Packet(src=HostId(src), dst=tb.host_id,
                             payload=payload, sent_at=0.0, stamped_at=0.0))
            return (tb.late_drops, got,
                    runtime.metrics.counter("net.h2h.late_dropped").value)

        late, got, counted = run(scenario)
        assert late == 2
        assert counted == 2
        assert got == []

    def test_queued_datagrams_are_dropped_and_counted_on_close(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            # Queue frames without yielding, then close before the drain.
            tb.datagram_received(frame_for(), ("127.0.0.1", 1))
            tb.datagram_received(frame_for(), ("127.0.0.1", 1))
            tb.close()
            await asyncio.sleep(0.05)  # the drain would have run by now
            return (tb.late_drops, got,
                    runtime.metrics.counter("net.h2h.late_dropped").value)

        late, got, counted = run(scenario)
        assert late == 2
        assert counted == 2
        assert got == []

    def test_transient_send_error_is_retried(self):
        class FlakySock:
            """Delegating wrapper whose sendto fails the first N times."""

            def __init__(self, inner, failures):
                self._inner = inner
                self.failures = failures

            def sendto(self, data, addr):
                if self.failures > 0:
                    self.failures -= 1
                    raise OSError(105, "No buffer space available")
                self._inner.sendto(data, addr)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            ta._sock = FlakySock(ta._sock, failures=2)
            ta.send(HostId("b"), RawPayload())
            assert await wait_for(lambda: got)  # arrived on the 3rd try
            return (runtime.metrics.counter("net.h2h.send_retry").value,
                    ta.send_drops)

        retries, drops = run(scenario)
        assert retries == 2
        assert drops == 0

    def test_persistent_send_error_becomes_counted_loss(self):
        class DeadSock:
            def __init__(self, inner):
                self._inner = inner

            def sendto(self, data, addr):
                raise OSError(105, "No buffer space available")

            def __getattr__(self, name):
                return getattr(self._inner, name)

        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            ta._sock = DeadSock(ta._sock)
            ta.send(HostId("b"), RawPayload())
            assert await wait_for(lambda: ta.send_drops == 1)
            await asyncio.sleep(0.02)
            return (got,
                    runtime.metrics.counter("net.h2h.send_dropped").value,
                    runtime.metrics.counter("net.h2h.send_retry").value)

        got, dropped, retries = run(scenario)
        assert got == []  # the frame died, quietly
        assert dropped == 1
        assert retries == 2  # attempts 2 and 3 were retries

    def test_receive_queue_overflow_sheds_oldest(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            tb._recv_queue_limit = 4
            # Ten bursts before the loop can drain: six must be shed.
            for _ in range(10):
                tb.datagram_received(frame_for(), ("127.0.0.1", 1))
            depth = tb.queue_length()
            await wait_for(lambda: len(got) == 4)
            return (depth, len(got),
                    runtime.metrics.counter("net.h2h.recv_shed").value)

        depth, delivered, shed = run(scenario)
        assert depth == 4
        assert delivered == 4
        assert shed == 6

    def test_bind_conflict_falls_back_to_ephemeral_port(self):
        async def scenario(runtime, ta, tb):
            taken = ta.local_address
            tc = UdpTransport(runtime, HostId("c"), peers={})
            await tc.open(taken)  # conflicts with ta's socket
            try:
                assert tc.local_address != taken
                return runtime.metrics.counter("net.h2h.bind_retry").value
            finally:
                tc.close()

        assert run(scenario) >= 1

    def test_socket_errors_counted_not_raised(self):
        async def scenario(runtime, ta, tb):
            ta.error_received(OSError(111, "Connection refused"))
            return (ta.socket_errors,
                    runtime.metrics.counter("net.h2h.socket_error").value)

        assert run(scenario) == (1, 1)


class TestSimUdpParity:
    """The tentpole acceptance check: one protocol, two worlds."""

    def test_seed_matched_two_cluster_parity(self):
        scenario = CrosscheckScenario(messages=3, seed=7, time_scale=0.05)
        started = time.monotonic()
        result = crosscheck(scenario)
        wall = time.monotonic() - started
        assert result.match, "\n" + result.report()
        assert set(result.sim_delivered) == {"h0.0", "h0.1", "h1.0", "h1.1"}
        # Bounded: the UDP side is compressed 20x, so even the full
        # 90-protocol-second budget is ~4.5s wall; parity normally
        # arrives far earlier.
        assert wall < scenario.timeout
