"""UdpTransport over real localhost sockets, and sim-vs-UDP parity."""

import asyncio
import time

import pytest

from repro.core.wire import HostTable, encode_frame
from repro.io import AsyncioRuntime, UdpTransport
from repro.io.crosscheck import CrosscheckScenario, crosscheck
from repro.net import HostId, Packet, RawPayload


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
    ta.set_peers(addresses)
    tb.set_peers(addresses)
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
            tb.receive_frame(b"not a frame")
            return tb.malformed, got, \
                runtime.metrics.counter("net.h2h.malformed").value

        malformed, got, counted = run(scenario)
        assert malformed == 1
        assert counted == 1
        assert got == []

    def test_frame_from_unknown_sender_is_malformed(self):
        from repro.net.addressing import _HOST_IDS

        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            known = len(_HOST_IDS)
            tb.receive_frame(frame_for(src_index=7))  # past the table
            tb.receive_frame(frame_for())
            return tb.malformed, [p.src for p in got], \
                runtime.metrics.counter("net.h2h.malformed").value, \
                len(_HOST_IDS) - known

        malformed, sources, counted, new_ids = run(scenario)
        assert (malformed, counted) == (1, 1)
        assert sources == [HostId("a")]
        assert sources[0] is HostId("a")
        assert new_ids == 0  # the wire grew no HostId

    def test_frame_built_against_another_host_table_is_malformed(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            # c joins a's table but not b's: same indices, other table.
            ta.set_peers({**ta.peers, HostId("c"): ("127.0.0.1", 9)})
            ta.send(HostId("b"), RawPayload())
            assert await wait_for(lambda: tb.malformed == 1)
            return got

        assert run(scenario) == []

    def test_byte_counters_count_whole_frames(self):
        async def scenario(runtime, ta, tb):
            tb.set_receiver(lambda packet: None)
            ta.send(HostId("b"), RawPayload(content="ping"))
            assert await wait_for(
                lambda: runtime.metrics.counter("net.h2h.recv").value == 1)
            return (runtime.metrics.counter("net.h2h.sent.bytes").value,
                    runtime.metrics.counter("net.h2h.recv.bytes").value,
                    runtime.trace_sink.records(kind="net.host_send")[0][
                        "bytes"])

        sent, received, traced = run(scenario)
        assert sent == received == traced < 64

    def test_peers_change_only_through_set_peers(self):
        async def scenario(runtime, ta, tb):
            with pytest.raises(TypeError):
                ta.peers[HostId("c")] = ("127.0.0.1", 9)  # type: ignore
            return HostId("c") in ta.peers

        assert run(scenario) is False

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


def frame_for(src_index=None):
    """A well-formed frame from ``a``, as its ``send_raw`` would emit it;
    ``src_index`` overwrites the sender's host-table index."""
    table = HostTable([HostId("a"), HostId("b")])
    frame = encode_frame(table, HostId("a"), 0.0, RawPayload())
    if src_index is None:
        return frame
    return frame[:6] + src_index.to_bytes(2, "big") + frame[8:]


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
            tb.receive_frame(frame_for())
            # A chaos-delayed injection outliving the deployment.
            tb.inject(Packet(src=HostId("a"), dst=tb.host_id,
                             payload=RawPayload(), sent_at=0.0,
                             stamped_at=0.0))
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
            assert not ta._retry_timers  # the ladder is exhausted
            return (got,
                    runtime.metrics.counter("net.h2h.send_dropped").value,
                    runtime.metrics.counter("net.h2h.send_retry").value)

        got, dropped, retries = run(scenario)
        assert got == []  # the frame died, quietly
        assert dropped == 1
        assert retries == 2  # attempts 2 and 3 were retries

    def test_a_wakeup_handles_at_most_recv_batch_datagrams(self):
        async def scenario(runtime, ta, tb):
            got = []
            tb.set_receiver(got.append)
            tb.recv_batch = 4
            # Drive the reader by hand to see each wakeup's batch.
            asyncio.get_running_loop().remove_reader(tb._fd)
            for _ in range(10):
                ta.send(HostId("b"), RawPayload())
            batches = []
            deadline = time.monotonic() + 5.0
            while len(got) < 10 and time.monotonic() < deadline:
                before = len(got)
                tb._on_readable()
                batches.append(len(got) - before)
                await asyncio.sleep(0)
            return batches, len(got)

        batches, delivered = run(scenario)
        assert delivered == 10  # the rest waited in the socket buffer
        assert max(batches) == 4

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
