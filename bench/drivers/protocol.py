"""Drivers for the protocol layers: wire, SeqnoSet, MAP, attachment,
the tree host's three hot handlers, and the basic receiver.

Host drivers run one protocol machine on the in-memory pair from
:mod:`bench.drivers.harness` and feed it through its registered
receiver, so only the machine's own handler code is timed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.baseline.basic import BasicConfig, BasicReceiver
from repro.core import (
    AttachAck,
    AttachmentView,
    AttachRequest,
    BroadcastHost,
    ClusterMode,
    ClusterView,
    DataMsg,
    InfoMsg,
    MapState,
    ProtocolConfig,
    SeqnoSet,
    checksum_ok,
    plan_attachment,
)
from repro.net import HostId

from . import per_op
from .harness import ManualRuntime, SinkTransport

DATA_BITS = 4_000
#: the 6 x 6 grid of the steady workloads
NAMES = [HostId(f"h{c}.{h}") for c in range(6) for h in range(6)]
SOURCE, ME, CHILDREN = NAMES[0], NAMES[1], NAMES[2:5]
#: messages a host holds before its INFO handlers are timed
HELD = 120


def _order(host: HostId) -> int:
    return len(NAMES) if host == SOURCE else NAMES.index(host)


def gappy_set(n: int = 2_000, hole_every: int = 7) -> SeqnoSet:
    """The set shape of ``benchmarks/bench_core_datastructures.py``."""
    out = SeqnoSet()
    for seq in range(1, n + 1):
        if seq % hole_every:
            out.add(seq)
    return out


# ----------------------------------------------------------------------
# core.wire
# ----------------------------------------------------------------------


def wire(budget_s: float) -> Dict[str, float]:
    batch = 2_000
    info = SeqnoSet.range(1, HELD)

    def seal_data(_: None) -> List[DataMsg]:
        return [DataMsg(seq=i, content="0123456789abcdef", created_at=1.0,
                        origin=SOURCE, size_bits=DATA_BITS)
                for i in range(batch)]

    def seal_info(_: None) -> List[InfoMsg]:
        return [InfoMsg(sender=ME, info=info, parent=SOURCE, stamp=1.0)
                for _ in range(batch)]

    def verify(messages: List[Any]) -> None:
        for message in messages:
            if not checksum_ok(message):
                raise AssertionError("a freshly sealed message failed its checksum")

    return {
        "core.wire.seal_data_us":
            per_op(budget_s, lambda: None, seal_data, batch) * 1e6,
        "core.wire.verify_data_us":
            per_op(budget_s, lambda: seal_data(None), verify, batch) * 1e6,
        "core.wire.seal_info_us":
            per_op(budget_s, lambda: None, seal_info, batch) * 1e6,
        "core.wire.verify_info_us":
            per_op(budget_s, lambda: seal_info(None), verify, batch) * 1e6,
    }


# ----------------------------------------------------------------------
# core.seqnoset / core.mapstate / core.attachment
# ----------------------------------------------------------------------


def seqnoset(budget_s: float) -> Dict[str, float]:
    gappy = gappy_set()
    other = gappy_set(hole_every=5)
    full = SeqnoSet.range(1, 2_000)
    copies = 10

    def contains(_: None) -> None:
        if sum(seq in gappy for seq in range(1, 2_001)) != len(gappy):
            raise AssertionError("membership disagrees with the set's length")

    def update(bases: List[SeqnoSet]) -> None:
        for base in bases:
            base.update(other)

    return {
        "core.seqnoset.add_ns":
            per_op(budget_s, lambda: None, lambda _: gappy_set(), len(gappy)) * 1e9,
        "core.seqnoset.contains_ns":
            per_op(budget_s, lambda: None, contains, 2_000) * 1e9,
        "core.seqnoset.copy_us":
            per_op(budget_s, lambda: None,
                   lambda _: [gappy.copy() for _ in range(copies)], copies) * 1e6,
        "core.seqnoset.difference_us":
            per_op(budget_s, lambda: None,
                   lambda _: [full.difference(gappy, limit=50)
                              for _ in range(copies)], copies) * 1e6,
        "core.seqnoset.update_us":
            per_op(budget_s, lambda: [gappy.copy() for _ in range(copies)],
                   update, copies) * 1e6,
    }


def _peer_views() -> List[Tuple[HostId, SeqnoSet, HostId]]:
    """What 35 peers would advertise mid-stream: INFO sets a few messages
    apart with the odd gap, parents forming the cluster tree."""
    views = []
    for index, peer in enumerate(NAMES):
        if peer == ME:
            continue
        info = SeqnoSet.range(1, HELD - index % 5)
        if index % 4 == 0:
            info.truncate_above(HELD - 10)
            info.add_range(HELD - 7, HELD - index % 5)
        cluster_head = NAMES[6 * (index // 6)]
        parent = SOURCE if peer == cluster_head else cluster_head
        views.append((peer, info, parent))
    return views


def mapstate(budget_s: float) -> Dict[str, float]:
    views = _peer_views()
    rounds = 20

    def apply(maps: MapState) -> None:
        for _ in range(rounds):
            for peer, info, parent in views:
                maps.apply_info(peer, info, parent)

    return {"core.mapstate.apply_info_us":
            per_op(budget_s, lambda: MapState(ME, SeqnoSet.range(1, HELD)),
                   apply, rounds * len(views)) * 1e6}


def attachment(budget_s: float) -> Dict[str, float]:
    """One attachment decision of an orphan (case I, all three options
    evaluated) over a 36-host MAP."""
    maps = MapState(ME, SeqnoSet.range(1, HELD - 20))
    for peer, info, parent in _peer_views():
        maps.apply_info(peer, info, parent)
    view = AttachmentView(
        me=ME, parent=None, participants=[h for h in NAMES if h != ME],
        cluster=ClusterView(ME, ClusterMode.STATIC, NAMES[:6]), maps=maps,
        order=_order)
    calls = 100

    def decide(_: None) -> None:
        for _ in range(calls):
            if not plan_attachment(view).candidates:
                raise AssertionError("an orphan behind its peers found no candidate")

    return {"core.attachment.decide_us":
            per_op(budget_s, lambda: None, decide, calls) * 1e6}


# ----------------------------------------------------------------------
# core.host
# ----------------------------------------------------------------------


def _attached_host() -> Tuple[BroadcastHost, ManualRuntime, SinkTransport]:
    """A host whose parent is the source and who has three children, all
    arranged through the protocol's own messages."""
    runtime = ManualRuntime()
    transport = SinkTransport(runtime, ME)
    host = BroadcastHost(
        runtime, transport, participants=NAMES, order=_order,
        config=ProtocolConfig.for_scale(len(NAMES), data_size_bits=DATA_BITS))
    host.start()
    ahead = SeqnoSet.range(1, 1)
    transport.inject(transport.packet_from(
        SOURCE, InfoMsg(sender=SOURCE, info=ahead, parent=None)))
    runtime.tick("attach")
    request = next(p for p in transport.sent if isinstance(p, AttachRequest))
    transport.inject(transport.packet_from(SOURCE, AttachAck(
        parent=SOURCE, attempt=request.attempt, parent_info=ahead,
        parent_parent=None)))
    for child in CHILDREN:
        transport.inject(transport.packet_from(
            child, AttachRequest(child=child, child_info=SeqnoSet())))
    if host.parent != SOURCE or host.children != set(CHILDREN):
        raise AssertionError("driver host did not attach as arranged")
    transport.sent.clear()
    return host, runtime, transport


def _data_packets(transport: SinkTransport, count: int) -> List[Any]:
    return [transport.packet_from(SOURCE, DataMsg(
        seq=seq, content="0123456789abcdef", created_at=0.0, origin=SOURCE,
        size_bits=DATA_BITS)) for seq in range(1, count + 1)]


def _feed(state: Tuple[SinkTransport, List[Any]]) -> None:
    transport, packets = state
    inject = transport.inject
    for packet in packets:
        inject(packet)


def host_data(budget_s: float) -> Dict[str, float]:
    """In-order data from the parent: accept, deliver, forward to three
    children."""
    batch = 1_000

    def make() -> Tuple[SinkTransport, List[Any]]:
        _, _, transport = _attached_host()
        return transport, _data_packets(transport, batch)

    def run(state: Tuple[SinkTransport, List[Any]]) -> None:
        _feed(state)
        if len(state[0].sent) != batch * len(CHILDREN):
            raise AssertionError("data was not forwarded to every child")

    return {"core.host.data_us": per_op(budget_s, make, run, batch) * 1e6}


def _holding_host() -> Tuple[BroadcastHost, ManualRuntime, SinkTransport]:
    host, runtime, transport = _attached_host()
    _feed((transport, _data_packets(transport, HELD)))
    transport.sent.clear()
    return host, runtime, transport


def host_info(budget_s: float) -> Dict[str, float]:
    """A child's gap-free INFO advertisement."""
    batch = 1_000
    info = SeqnoSet.range(1, HELD)

    def make() -> Tuple[SinkTransport, List[Any]]:
        _, _, transport = _holding_host()
        return transport, [
            transport.packet_from(CHILDREN[0], InfoMsg(
                sender=CHILDREN[0], info=info, parent=ME, stamp=1.0))
            for _ in range(batch)]

    return {"core.host.info_us": per_op(budget_s, make, _feed, batch) * 1e6}


def host_gapfill(budget_s: float) -> Dict[str, float]:
    """A child's INFO exposing 20 gaps, then the neighbour gap-fill tick
    that repairs them (20 data sends)."""
    batch = 50
    gaps = 20
    holes = set(range(10, 10 + 5 * gaps, 5))
    info = SeqnoSet(seq for seq in range(1, HELD + 1) if seq not in holes)

    def make() -> Tuple[ManualRuntime, SinkTransport, List[Any], float]:
        host, runtime, transport = _holding_host()
        packets = [transport.packet_from(CHILDREN[0], InfoMsg(
            sender=CHILDREN[0], info=info, parent=ME, stamp=1.0))
            for _ in range(batch)]
        window = host.config.gapfill_suppression + 1.0
        runtime.advance(window)  # the forwards above count as recent fills
        return runtime, transport, packets, window

    def run(state: Tuple[ManualRuntime, SinkTransport, List[Any], float]) -> None:
        runtime, transport, packets, window = state
        for packet in packets:
            transport.inject(packet)
            runtime.tick("gapfill_intra")
            runtime.advance(window)  # past the re-send suppression window
        if len(transport.sent) != batch * gaps:
            raise AssertionError("the gap-fill tick did not send one fill per gap")

    return {"core.host.gapfill_us": per_op(budget_s, make, run, batch) * 1e6}


# ----------------------------------------------------------------------
# baseline.basic
# ----------------------------------------------------------------------


def basic_recv(budget_s: float) -> Dict[str, float]:
    """The basic algorithm's receiver: accept a data message, send the ack."""
    batch = 1_000

    def make() -> Tuple[SinkTransport, List[Any]]:
        runtime = ManualRuntime()
        transport = SinkTransport(runtime, ME)
        BasicReceiver(runtime, transport, SOURCE,
                      BasicConfig(data_size_bits=DATA_BITS))
        return transport, _data_packets(transport, batch)

    def run(state: Tuple[SinkTransport, List[Any]]) -> None:
        _feed(state)
        if len(state[0].sent) != batch:
            raise AssertionError("the receiver did not acknowledge every message")

    return {"baseline.basic.recv_us": per_op(budget_s, make, run, batch) * 1e6}


DRIVERS = (wire, seqnoset, mapstate, attachment, host_data, host_info,
           host_gapfill, basic_recv)
