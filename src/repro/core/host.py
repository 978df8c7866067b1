"""The broadcast host agent (Sections 4.1–4.4).

:class:`BroadcastHost` is the per-host protocol machine.  It owns:

* ``INFO_i`` (its :class:`~repro.core.seqnoset.SeqnoSet`); the
  message store, delivery log and crash model are
  :class:`~repro.core.delivery.HostCore`'s;
* ``MAP_i`` / ``p_i[]`` views (:class:`~repro.core.mapstate.MapState`);
* ``CLUSTER_i`` (:class:`~repro.core.cluster.ClusterView`), learned
  from cost bits;
* the parent pointer and ``CHILDREN_i``;
* periodic tasks: the attachment procedure, two-rate INFO exchange,
  two-rate neighbor gap filling, low-rate non-neighbor gap filling;
* one-shot timers: attach-ack timeout and parent liveness timeout.

Message handling implements the paper's acceptance rule verbatim: a
data message numbered *higher than anything seen so far* is accepted
only from the current parent (and then propagated to all children); any
other missing message is a gap fill, accepted from anyone and relayed
to parent-graph neighbors that appear to lack it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..io.interfaces import (
    CounterLike,
    PeriodicHandle,
    Runtime,
    TimerHandle,
    Transport,
)
from ..net import HostId, Packet
from .attachment import AttachmentView, Candidate, plan_attachment
from .cluster import ClusterView
from .config import CostBitMode, ProtocolConfig
from .costinfer import TransitTimeClassifier
from .delivery import DeliverCallback, HostCore
from .mapstate import MapState
from .resources import ResourceConfig, ShedPolicy
from .rtt import CongestionSignal, ExponentialBackoff, PeerRtt
from .seqnoset import SeqnoSet
from .wire import (
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    InfoMsg,
)

OrderFn = Callable[[HostId], int]

# -- adaptive control plane (repro.core.rtt; DESIGN.md §9) -------------------
#: adaptive deadlines never shrink below this fraction of the
#: corresponding fixed value (the floor of the clamp)
RTO_FLOOR_FRAC = 0.1
#: adaptive parent-liveness deadline: this many heartbeat periods plus
#: the parent's RTO (clamped to the fixed timeout as ceiling)
ADAPTIVE_PARENT_BEATS = 3.0
#: adaptive gap-fill retry window: one exchange period plus this many
#: RTOs of the target (clamped to ``gapfill_suppression``)
GAPFILL_RTO_MULT = 3.0
#: +/- jitter fraction on every backoff delay (decorrelates hosts)
BACKOFF_JITTER_FRAC = 0.25
#: recent bad-receive fraction beyond which optional repair traffic
#: (non-neighbor gap fills) is throttled and batches are halved
CONGESTION_THRESHOLD = 0.3


def _exact_delay(now: float, deadline: float) -> float:
    """The timer delay ``d`` for which ``now + d == deadline``.

    ``deadline - now`` rounds when ``now < deadline / 2``, and the
    backends add the delay back to their clock, so a timer armed with
    the plain difference can fire one ulp after the deadline — a
    different float, which moves pinned signatures and in-sim latencies.
    A few ulp nudges restore the sum.  When no delay sums exactly (a
    rounding tie skips ``deadline``), this returns the one landing just
    before it: never late, and the chase's next re-arm, from within a
    factor two of the deadline, is exact.
    """
    delay = deadline - now
    while now + delay < deadline:
        delay = math.nextafter(delay, math.inf)
    while now + delay > deadline:
        delay = math.nextafter(delay, -math.inf)
    return delay


@dataclass
class _PendingAttach:
    """State of an in-progress attachment handshake."""

    candidates: List[Candidate]
    index: int
    attempt: int

    @property
    def current(self) -> Candidate:
        return self.candidates[self.index]


class BroadcastHost(HostCore):
    """One participating host running the reliable-broadcast protocol.

    The delivery ledger, the crash model and the issue step come from
    :class:`~repro.core.delivery.HostCore`; this class adds the paper's
    rules: acceptance and fan-out, INFO exchange, gap filling,
    attachment, parent liveness, and the INFO-based stable prefix.
    """

    def __init__(
        self,
        runtime: Runtime,
        port: Transport,
        participants: Sequence[HostId],
        order: OrderFn,
        config: Optional[ProtocolConfig] = None,
        static_cluster: Optional[Set[HostId]] = None,
        deliver_callback: Optional[DeliverCallback] = None,
    ) -> None:
        super().__init__(runtime, port, deliver_callback)
        self.config = config or ProtocolConfig()
        self.participants = sorted(h for h in participants if h != self.me)
        self.order = order

        self.info = SeqnoSet()
        self.maps = MapState(self.me, self.info)
        self.cluster = ClusterView(self.me, self.config.cluster_mode, static_cluster)
        self.parent: Optional[HostId] = None
        self.children: Set[HostId] = set()

        self._attempt_counter = itertools.count(1)
        self._pending: Optional[_PendingAttach] = None
        self._static_cluster = static_cluster
        #: (target -> seq -> last fill time); bounds duplicate gap fills
        self._recent_fills: Dict[HostId, Dict[int, float]] = {}
        #: bounded-resource model (DESIGN.md §13); None = everything
        #: unbounded, zero behavioral footprint
        self._resources = self.config.resources
        #: running total of (target, seq) suppression entries, so the
        #: fill-table bound never needs a full recount on the hot path
        self._fill_entries = 0
        #: when the unbounded table was last swept of dead entries
        self._fill_sweep = 0.0
        #: when each current child was (re)registered — reconcile grace
        self._child_since: Dict[HostId, float] = {}
        #: last time the current parent sent us data (or was adopted)
        self._parent_progress_at = 0.0
        #: transit-time classifier (only consulted in TIMESTAMP mode).
        #: The paper's mechanism compares one-way transit times across
        #: senders, which implicitly assumes clocks synchronized to
        #: within a few cheap-path transits; experiment E16 quantifies
        #: the degradation when they are not.
        self._cost_classifier = TransitTimeClassifier()
        self._cost_bit_trusted = self.config.cost_bit_mode is CostBitMode.NETWORK
        # -- adaptive control plane (repro.core.rtt; DESIGN.md §9) --------
        # Each is fed only while something reads it (pure bookkeeping,
        # no events, no RNG, so skipping it changes nothing else).  The
        # RTT estimators' readers are the adaptive deadlines; the
        # congestion signal's are the adaptive throttles and the
        # source's admission brake (SourceHost._admit), which admission
        # control turns on in either mode.  adaptive=False still sends
        # (and holds) the INFO stamps and echoes, so frames are the same.
        self._rtt = PeerRtt()
        self._congestion = CongestionSignal(self.config.congestion_window)
        self._feed_congestion = self.config.adaptive or (
            self._resources is not None and self._resources.admission_enabled)
        self._attach_backoff = ExponentialBackoff(
            self.config.attach_backoff_base, self.config.attach_backoff_cap,
            BACKOFF_JITTER_FRAC,
            self.runtime.rng(f"host.{self.me}.attach_backoff"))
        self._gapfill_backoff = ExponentialBackoff(
            self.config.gapfill_nonneighbor_period,
            self.config.gapfill_nonneighbor_period * 8,
            BACKOFF_JITTER_FRAC,
            self.runtime.rng(f"host.{self.me}.gapfill_backoff"))
        #: earliest time a new attachment round / non-neighbor fill may run
        self._attach_resume_at = 0.0
        self._gapfill_resume_at = 0.0
        #: when the current AttachRequest was sent (RTT sample on its ack)
        self._attach_sent_at = 0.0
        #: peer -> (peer's stamp, local receive time); echoed once on the
        #: next InfoMsg to that peer (the NTP-style RTT exchange)
        self._info_stamps: Dict[HostId, Tuple[float, float]] = {}
        #: (sender, uid) -> receive time; duplicate-control suppression
        self._seen_control: Dict[Tuple[HostId, int], float] = {}
        self._seen_control_sweep = 0.0
        #: hot-path metric handles, bound on first use so a host that
        #: never forwards registers nothing (DESIGN.md §8)
        self._c_forwarded: Optional[CounterLike] = None
        self._c_info_intra: Optional[CounterLike] = None
        self._c_info_inter: Optional[CounterLike] = None

        # One-shot timers are held as opaque Runtime handles only — no
        # backend-specific timer objects — so stop()/crash() disarm them
        # identically in-sim and on the asyncio backend.
        self._ack_timer: Optional[TimerHandle] = None
        self._parent_timer: Optional[TimerHandle] = None
        #: parent liveness: when the parent is presumed dead unless it
        #: speaks again, and when the armed ``_parent_timer`` fires
        self._parent_deadline = 0.0
        self._parent_timer_at = 0.0
        self._tasks = self._build_tasks()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _build_tasks(self) -> List[PeriodicHandle]:
        cfg = self.config
        rt = self.runtime
        stream = f"host.{self.me}"
        tasks = [
            rt.start_periodic(cfg.attachment_period, self._attachment_tick,
                              jitter=cfg.attachment_jitter,
                              rng_stream=f"{stream}.attach", name="attach"),
            rt.start_periodic(cfg.info_intra_period, self._info_intra_tick,
                              jitter=cfg.info_intra_period * cfg.info_jitter_frac,
                              rng_stream=f"{stream}.info_intra", name="info_intra"),
            rt.start_periodic(cfg.info_inter_period, self._info_inter_tick,
                              jitter=cfg.info_inter_period * cfg.info_jitter_frac,
                              rng_stream=f"{stream}.info_inter", name="info_inter"),
            rt.start_periodic(cfg.gapfill_neighbor_intra_period,
                              self._gapfill_neighbors_intra_tick,
                              jitter=cfg.gapfill_neighbor_intra_period * 0.1,
                              rng_stream=f"{stream}.gf_intra", name="gapfill_intra"),
            rt.start_periodic(cfg.gapfill_neighbor_inter_period,
                              self._gapfill_neighbors_inter_tick,
                              jitter=cfg.gapfill_neighbor_inter_period * 0.1,
                              rng_stream=f"{stream}.gf_inter", name="gapfill_inter"),
            rt.start_periodic(cfg.gapfill_nonneighbor_period,
                              self._gapfill_nonneighbors_tick,
                              jitter=cfg.gapfill_nonneighbor_period * 0.1,
                              rng_stream=f"{stream}.gf_nonneighbor",
                              name="gapfill_nonneighbor"),
        ]
        return tasks

    def stop(self) -> None:
        """Halt all periodic activity and timers.

        ``stop``/``start`` form a safe restart pair (crash recovery
        depends on it): an attach handshake in flight is abandoned here,
        because its ack timer dies with us — keeping ``_pending`` armed
        would block every future attachment tick forever.
        """
        super().stop()
        self.runtime.cancel_timer(self._ack_timer)
        self._ack_timer = None
        self.runtime.cancel_timer(self._parent_timer)
        self._parent_timer = None
        self._pending = None

    # ------------------------------------------------------------------
    # Host crash (the model itself is HostCore's)
    # ------------------------------------------------------------------

    def _flushable_prefix(self) -> int:
        """Stable storage flushes delivered messages in order: the
        contiguous prefix survives, minus the ``crash_stable_lag``
        newest entries that may still sit in the write buffer.  The
        pruned INFO prefix is always stable — pruning only happens once
        every participant provably holds those messages.
        """
        return max(self.info.floor,
                   self.info.contiguous_prefix() - self.config.crash_stable_lag)

    def _forget_above(self, stable: int) -> int:
        """Everything except the stable message prefix is wiped:
        MAP/parent-pointer views, the learned CLUSTER set, the parent
        pointer, CHILDREN, pending attach state (gone with stop()),
        gap-fill bookkeeping, and the transit-time classifier's
        calibration.  On recovery the host restarts as a fresh orphan:
        the next attachment tick re-enters the attachment procedure as
        case I, and gap filling repairs the rest once re-attached.
        """
        self.info.truncate_above(stable)
        lost = super()._forget_above(stable)
        self.maps = MapState(self.me, self.info)
        self.cluster.reset()
        self.parent = None
        self.children.clear()
        self._child_since.clear()
        self._recent_fills.clear()
        self._fill_entries = 0
        self._parent_progress_at = 0.0
        self._cost_classifier = TransitTimeClassifier()
        # Adaptive-plane state is volatile too: stale RTT estimates,
        # held echo stamps, and the dedup table all die with the host.
        self._rtt = PeerRtt()
        self._congestion = CongestionSignal(self.config.congestion_window)
        self._attach_backoff.reset()
        self._gapfill_backoff.reset()
        self._attach_resume_at = 0.0
        self._gapfill_resume_at = 0.0
        self._info_stamps.clear()
        self._seen_control.clear()
        return lost

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_cluster_leader(self) -> bool:
        """Per Section 4.1: parent absent or outside the (believed) cluster."""
        return self.parent not in self.cluster

    def neighbors(self) -> Set[HostId]:
        """Parent-graph neighbors: children plus the parent."""
        out = set(self.children)
        if self.parent is not None:
            out.add(self.parent)
        return out

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------

    def _drop_corrupt(self, packet: Packet, known_uid: bool = False) -> None:
        """Attribute the drop by uid (only the control-dedup table knows
        which uids this host accepted), then count it as a bad receive."""
        uid = getattr(packet.payload, "uid", None)
        super()._drop_corrupt(
            packet, uid is not None and (packet.src, uid) in self._seen_control)
        if self._feed_congestion:
            self._congestion.note_bad(self.runtime.now())

    def _receive(self, packet: Packet) -> None:
        runtime = self.runtime
        sender = packet.src
        payload = packet.payload
        # Duplicate-control suppression: link-level duplicates and
        # replayed control messages share the original payload's uid.
        # Without this, a replayed AttachAck can re-wedge the handshake
        # and duplicated InfoMsgs double-feed the RTT echo.
        uid = getattr(payload, "uid", None)
        if uid is not None:
            key = (sender, uid)
            now = runtime.now()
            horizon = now - self.config.control_dedup_window
            if self._seen_control.get(key, float("-inf")) > horizon:
                if runtime.trace_sink.active:
                    runtime.trace("host.drop_dup_control", str(self.me),
                                  src=str(sender), payload_kind=packet.kind)
                runtime.counter("proto.wire.dup_suppressed").inc()
                if self._feed_congestion:
                    self._congestion.note_bad(now)
                return
            self._seen_control[key] = now
            if now - self._seen_control_sweep > self.config.control_dedup_window:
                self._seen_control_sweep = now
                self._seen_control = {k: t for k, t in self._seen_control.items()
                                      if t > horizon}
        if self._feed_congestion:
            self._congestion.note_good(runtime.now())
        self.cluster.observe(sender, packet.cost_bit if self._cost_bit_trusted
                             else self._transit_expensive(packet))
        if sender == self.parent:
            self._arm_parent_timer()
        if isinstance(payload, DataMsg):
            self._on_data(payload, sender)
        elif isinstance(payload, InfoMsg):
            self._on_info(payload, sender)
        elif isinstance(payload, AttachRequest):
            self._on_attach_request(payload, sender)
        elif isinstance(payload, AttachAck):
            self._on_attach_ack(payload, sender)
        elif isinstance(payload, DetachNotice):
            self._on_detach(payload, sender)
        else:  # pragma: no cover - future message types
            runtime.trace("host.unknown_payload", str(self.me),
                          payload=type(payload).__name__)

    def _transit_expensive(self, packet: Packet) -> bool:
        """Did this delivery cross an expensive link?  (Section 2.)

        NETWORK mode trusts the cost bit stamped by the servers
        (``_on_packet`` reads it when ``_cost_bit_trusted``); TIMESTAMP
        mode, here, infers the class from the message's time in
        transit, for networks that offer no such service.
        """
        # Estimate transit with *local* clocks on both ends, exactly as
        # a real deployment would (skew included when a clock model is
        # installed).
        transit = max(self.port.local_time() - packet.stamped_at, 0.0)
        return self._cost_classifier.classify(transit)

    # ------------------------------------------------------------------
    # Data handling (Section 4.1 acceptance rule + Section 4.4 gap filling)
    # ------------------------------------------------------------------

    def _on_data(self, msg: DataMsg, sender: HostId) -> None:
        runtime = self.runtime
        now = runtime.now()
        seq = msg.seq
        self.maps.note_has(sender, seq)
        if sender == self.parent:
            self._parent_progress_at = now
        if seq in self.info:
            if runtime.trace_sink.active:
                runtime.trace("host.discard_data", str(self.me), seq=seq,
                              sender=str(sender), reason="duplicate")
            runtime.counter("proto.data.discard.duplicate").inc()
            if self._feed_congestion:
                self._congestion.note_bad(now)
            return
        new_max = seq > self.info.max_seqno
        if new_max and sender != self.parent:
            # The paper's rule: a higher-than-anything message is accepted
            # only from the parent; from anyone else it is discarded.
            if runtime.trace_sink.active:
                runtime.trace("host.discard_data", str(self.me), seq=seq,
                              sender=str(sender), reason="not_parent")
            runtime.counter("proto.data.discard.not_parent").inc()
            return
        self._accept(msg, sender, new_max, now)

    def _accept(self, msg: DataMsg, sender: HostId, new_max: bool,
                now: float) -> None:
        seq = msg.seq
        self.info.add(seq)
        self.store[seq] = msg
        resources = self._resources
        if resources is not None:
            self._shed_store(resources)
        self._deliver(msg, sender, now, not new_max or msg.gapfill)
        if new_max:
            # Normal propagation: push to all children.
            for child in sorted(self.children):
                if child != sender:
                    self._send_data(child, seq, False, now)
        else:
            # A gap filler: relay it to parent-graph neighbors that,
            # according to MAP, do not have it (Section 4.4).
            for neighbor in sorted(self.neighbors()):
                if neighbor == sender:
                    continue
                if seq not in self.maps.info_of(neighbor):
                    self._send_data(neighbor, seq, True, now)

    def _send_data(self, target: HostId, seq: int, gapfill: bool,
                   now: float) -> None:
        """Send stored message ``seq`` to ``target``.

        ``now`` is the calling handler's clock reading.
        """
        stored = self.store.get(seq)
        if stored is None:
            return
        runtime = self.runtime
        resources = self._resources
        if resources is not None and resources.bounds_outbound:
            # Outbound backpressure: a data send that would land on an
            # already-deep access-link queue is shed (drop-newest) —
            # the receiver's INFO advertisement keeps the hole visible
            # and periodic gap filling retries once the queue drains.
            # Control traffic never comes through here, so the control
            # plane stays alive under data overload.
            depth_of = getattr(self.port, "queue_length", None)
            if (depth_of is not None
                    and depth_of() >= resources.outbound_queue_limit):
                if runtime.trace_sink.active:
                    runtime.trace(
                        "host.shed", str(self.me), buffer="outbound", seq=seq,
                        target=str(target), policy=ShedPolicy.DROP_NEWEST.value)
                runtime.counter("proto.shed.outbound").inc()
                return
        data_bits = self.config.data_size_bits
        if stored.gapfill == gapfill and stored.size_bits == data_bits:
            msg = stored  # payloads are immutable: forward the one we hold
        else:
            msg = DataMsg(stored.seq, stored.content, stored.created_at,
                          stored.origin, gapfill, data_bits)
        self.port.send(target, msg)
        self.maps.note_sent(target, seq)
        # Every data send enters the suppression window so periodic gap
        # filling does not immediately duplicate a normal forward.
        fills = self._recent_fills.setdefault(target, {})
        if seq not in fills:
            self._fill_entries += 1
        fills[seq] = now
        if resources is not None and resources.bounds_fill_table:
            self._shed_fill_table(resources)
        elif now - self._fill_sweep > self.config.gapfill_suppression:
            # An entry at or below now - gapfill_suppression is dead in
            # both modes (the adaptive window is clamped to at most
            # that), so sweep the dead ones once per window.
            self._fill_sweep = now
            dead = now - self.config.gapfill_suppression
            self._recent_fills = {
                peer: live for peer, entries in self._recent_fills.items()
                if (live := {s: t for s, t in entries.items() if t > dead})}
            self._fill_entries = sum(map(len, self._recent_fills.values()))
        if gapfill:
            runtime.counter("proto.gapfill.sent").inc()
            if runtime.trace_sink.active:
                runtime.trace("host.gapfill_send", str(self.me),
                              target=str(target), seq=seq)
        else:
            forwarded = self._c_forwarded
            if forwarded is None:
                forwarded = self._c_forwarded = runtime.counter(
                    "proto.data.forwarded")
            forwarded.value += 1.0

    # ------------------------------------------------------------------
    # Bounded resources (DESIGN.md §13).  The data path calls these only
    # when ``_resources`` is set, and passes it in.
    # ------------------------------------------------------------------

    def _shed_store(self, resources: ResourceConfig) -> None:
        """Enforce the message-store bound after an insert.

        Eviction drops the *store entry only*: the sequence number stays
        in INFO (this host genuinely delivered it), so the shed host
        simply stops being a possible gap-fill supplier for that
        message.  The source is exempt — its store is the stable outbox
        the whole protocol's reliability argument leans on.
        """
        if not resources.bounds_store or self.is_source:
            return
        policy = resources.store_policy
        while len(self.store) > resources.store_limit:
            victim = (max(self.store) if policy is ShedPolicy.DROP_NEWEST
                      else min(self.store))
            del self.store[victim]
            self.runtime.trace("host.shed", str(self.me), buffer="store",
                                seq=victim, policy=policy.value)
            self.runtime.counter("proto.shed.store").inc()

    def _shed_fill_table(self, resources: ResourceConfig) -> None:
        """Enforce the gap-fill suppression-table bound.

        Evicts the oldest-stamped entries first: their suppression
        window is nearest to expiring, so forgetting them early costs
        at most one duplicate fill — the cheapest possible loss.
        """
        excess = self._fill_entries - resources.fill_table_limit
        if excess <= 0:
            return
        entries = sorted(
            (when, target, seq)
            for target, fills in self._recent_fills.items()
            for seq, when in fills.items())
        for when, target, seq in entries[:excess]:
            del self._recent_fills[target][seq]
            self._fill_entries -= 1
            self.runtime.counter("proto.shed.fill_table").inc()
        self.runtime.trace("host.shed", str(self.me), buffer="fill_table",
                            count=excess,
                            policy=ShedPolicy.DROP_OLDEST.value)

    # ------------------------------------------------------------------
    # INFO exchange
    # ------------------------------------------------------------------

    def _on_info(self, msg: InfoMsg, sender: HostId) -> None:
        now = self.runtime.now()
        if msg.stamp >= 0.0:
            # Hold the sender's stamp; our next InfoMsg to it echoes it.
            self._info_stamps[sender] = (msg.stamp, now)
        if msg.echo_stamp >= 0.0 and self.config.adaptive:
            # Our own stamp coming back: rtt = elapsed minus the time the
            # peer held it.  Both endpoints of the subtraction are in our
            # clock (NTP-style), so sender clock skew cancels out.
            sample = (now - msg.echo_stamp) - msg.echo_hold
            if sample >= 0.0:
                self._rtt.observe(sender, sample)
        self.maps.apply_info(sender, msg.info, msg.parent)
        grace = self.config.child_reconcile_grace
        if (self.config.enable_child_reconcile
                and sender in self.children and msg.parent != self.me
                and now - self._child_since.get(sender, 0.0) > grace):
            # The routine parent-pointer exchange reveals a phantom child:
            # it asked to attach once but never adopted us (ack lost or
            # timed out).  Keeping it would mean gap-filling a host that
            # discards everything we send.
            self.children.discard(sender)
            self._child_since.pop(sender, None)
            self.runtime.trace("host.child_reconciled", str(self.me),
                                child=str(sender))
            self.runtime.counter("proto.children.reconciled").inc()

    def _info_payload_for(self, dst: HostId) -> InfoMsg:
        # Each destination gets its own stamp, plus (once) the echo of
        # its most recent stamp so *it* can sample the round trip.
        now = self.runtime.now()
        echo_stamp, echo_hold = -1.0, 0.0
        held = self._info_stamps.pop(dst, None)
        if held is not None:
            echo_stamp = held[0]
            echo_hold = now - held[1]
        return InfoMsg(self.me, self.info, self.parent,
                       self.config.control_size_bits, now, echo_stamp,
                       echo_hold)

    def _info_intra_tick(self) -> None:
        counter = self._c_info_intra
        for j in sorted(self.cluster.neighbors()):
            self.port.send(j, self._info_payload_for(j))
            if counter is None:
                counter = self._c_info_intra = self.runtime.counter(
                    "proto.info.sent.intra")
            counter.value += 1.0

    def _info_inter_tick(self) -> None:
        counter = self._c_info_inter
        for j in self.participants:
            if j in self.cluster:
                continue
            self.port.send(j, self._info_payload_for(j))
            if counter is None:
                counter = self._c_info_inter = self.runtime.counter(
                    "proto.info.sent.inter")
            counter.value += 1.0
        self._maybe_prune()

    def _maybe_prune(self) -> None:
        """Section 6: prune 1..n once every participant is known to have it.

        The paper's pruning argument assumes a host that received a
        message keeps it forever; with host crashes that is only true of
        the stable prefix.  A host advertising contiguous prefix p can
        roll back to p − crash_stable_lag, so pruning stays that margin
        behind the global minimum — otherwise a post-prune crash leaves
        a message no store in the network still holds.
        """
        if not self.config.enable_info_pruning or not self.participants:
            return
        prefix = self.info.contiguous_prefix()
        for j in self.participants:
            prefix = min(prefix, self.maps.authoritative_prefix(j))
            if prefix - self.config.crash_stable_lag <= self.info.floor:
                return
        prefix -= self.config.crash_stable_lag
        self.info.prune_through(prefix)
        for seq in [s for s in self.store if s <= prefix]:
            del self.store[seq]
        self.runtime.trace("host.prune", str(self.me), through=prefix)

    # ------------------------------------------------------------------
    # Gap filling (Section 4.4)
    # ------------------------------------------------------------------

    def _fill_gaps_of(self, target: HostId, include_frontier: bool = False,
                      persistent_only: bool = False) -> int:
        """Send ``target`` everything we have that it appears to lack.

        A (target, seq) pair is not re-sent within the configured
        suppression window: MAP views lag by up to an exchange period,
        and without suppression every perceived-but-already-filled gap
        would be refilled on each tick.  Genuinely lost fills are
        retried once the window expires.
        """
        view = self.maps.info_of(target)
        recent = self._recent_fills.setdefault(target, {})
        intra = target in self.cluster
        batch_limit = (self.config.gapfill_batch_limit if intra
                       else self.config.gapfill_batch_limit_inter)
        now = self.runtime.now()
        if self.config.adaptive:
            if self._congested():
                # Graceful degradation: when receives are going bad,
                # smaller repair batches — never a bigger retry storm.
                batch_limit = max(1, batch_limit // 2)
            horizon = now - self._gapfill_retry_window(target, intra)
        else:
            horizon = now - self.config.gapfill_suppression
        target_max = view.max_seqno
        # Only the target's parent may usefully send messages numbered
        # above the target's maximum: receivers enforce the paper's rule
        # of accepting new-maximum data exclusively from their parent.
        # Anyone may fill true gaps (holes below the target's maximum).
        # Duplication of recent normal forwards is prevented by the
        # suppression window, which records every data send.
        can_send_frontier = include_frontier or target in self.children
        sent = 0
        # ``view`` may be the received frozen snapshot; _send_data's
        # marks (maps.note_sent) go to MapState's private copy of it.
        # Either way iter_difference fixes the runs now and expands
        # members lazily, so the loop walks a fixed set.
        for seq in self.info.iter_difference(view):
            if seq > target_max and not can_send_frontier:
                break  # ascending: every later seq is frontier too
            if persistent_only and not self.maps.persistent_hole(target, seq):
                continue  # non-neighbors only repair long-lived holes
            if seq not in self.store:
                continue
            if recent.get(seq, float("-inf")) > horizon:
                continue
            self._send_data(target, seq, True, now)
            sent += 1
            if sent >= batch_limit:
                break
        return sent

    def _congested(self) -> bool:
        return (self._congestion.level(self.runtime.now())
                > CONGESTION_THRESHOLD)

    def _gapfill_retry_window(self, target: HostId, intra: bool) -> float:
        """Adaptive (target, seq) re-send suppression window.

        One INFO-exchange period (so the target's advertisement can
        catch up) plus a few RTOs of the target (so a genuinely lost
        fill is retried as soon as the round trip allows), clamped to
        the fixed ``gapfill_suppression`` as ceiling and a fraction of
        it as floor.
        """
        cfg = self.config
        period = cfg.info_intra_period if intra else cfg.info_inter_period
        fixed = cfg.gapfill_suppression
        window = period + GAPFILL_RTO_MULT * self._rtt.rto(
            target, floor=0.0, ceiling=fixed)
        return min(max(window, RTO_FLOOR_FRAC * fixed), fixed)

    def _gapfill_neighbors_intra_tick(self) -> None:
        for neighbor in sorted(self.neighbors()):
            if neighbor in self.cluster:
                self._fill_gaps_of(neighbor)

    def _gapfill_neighbors_inter_tick(self) -> None:
        for neighbor in sorted(self.neighbors()):
            if neighbor not in self.cluster:
                self._fill_gaps_of(neighbor)

    def _gapfill_nonneighbors_tick(self) -> None:
        if self.config.adaptive:
            now = self.runtime.now()
            if now < self._gapfill_resume_at:
                self.runtime.counter("proto.gapfill.throttled").inc()
                return
            if self._congested():
                # Non-neighbor filling is the protocol's *optional*
                # repair traffic; under congestion it backs off
                # exponentially rather than piling on (retry storms are
                # what the congestion signal exists to prevent).
                delay = self._gapfill_backoff.next_delay()
                self._gapfill_resume_at = now + delay
                self.runtime.trace("host.gapfill_throttle", str(self.me),
                                    resume_in=delay)
                self.runtime.counter("proto.gapfill.throttled").inc()
                return
            self._gapfill_backoff.reset()
        neighbors = self.neighbors()
        for j in self.participants:
            if j not in neighbors:
                self._fill_gaps_of(j, persistent_only=True)

    # ------------------------------------------------------------------
    # Attachment procedure driver (Section 4.2)
    # ------------------------------------------------------------------

    def _attachment_view(self) -> AttachmentView:
        return AttachmentView(
            me=self.me, parent=self.parent, participants=self.participants,
            cluster=self.cluster, maps=self.maps, order=self.order,
            delay_optimization=self.config.enable_delay_optimization,
            delay_opt_margin=self.config.delay_opt_margin)

    def _attachment_tick(self) -> None:
        if self._pending is not None:
            return  # one handshake at a time
        if self.config.adaptive and self.runtime.now() < self._attach_resume_at:
            return  # backing off after an exhausted round
        self._maybe_refresh_parent()
        plan = plan_attachment(self._attachment_view())
        if plan.cycle_detected:
            self.runtime.trace("host.cycle_detected", str(self.me),
                                cycle=[str(h) for h in plan.cycle])
            self.runtime.counter("proto.cycle.detected").inc()
            if not plan.must_break_cycle:
                return
            # The highest-order member detaches and reruns as case I.
            self._detach_from_parent(reason="cycle_break")
            self.runtime.counter("proto.cycle.broken").inc()
            plan = plan_attachment(self._attachment_view())
        if not plan.candidates:
            return
        # Deduplicate targets, preserving priority order.
        seen: Set[HostId] = set()
        unique = []
        for candidate in plan.candidates:
            if candidate.target not in seen:
                seen.add(candidate.target)
                unique.append(candidate)
        self._pending = _PendingAttach(candidates=unique, index=0,
                                       attempt=next(self._attempt_counter))
        self._send_attach_request()

    def _send_attach_request(self) -> None:
        assert self._pending is not None
        candidate = self._pending.current
        request = AttachRequest(child=self.me, child_info=self.info,
                                attempt=self._pending.attempt,
                                size_bits=self.config.control_size_bits)
        self.port.send(candidate.target, request)
        self.runtime.trace("host.attach_try", str(self.me),
                            target=str(candidate.target), case=candidate.case,
                            option=candidate.option, attempt=self._pending.attempt)
        self.runtime.counter("proto.attach.requests").inc()
        self._attach_sent_at = self.runtime.now()
        self.runtime.cancel_timer(self._ack_timer)
        self._ack_timer = self.runtime.start_timer(
            self._attach_timeout_value(candidate.target), self._on_attach_timeout)

    def _attach_timeout_value(self, target: HostId) -> float:
        """How long to wait for ``target``'s AttachAck.

        Adaptive: the peer's RTO (Jacobson/Karn, backed off per Karn
        after timeouts), clamped between a fraction of the fixed
        timeout and the fixed timeout itself.  An unmeasured peer gets
        exactly the fixed timeout.
        """
        fixed = self.config.attach_ack_timeout
        if not self.config.adaptive:
            return fixed
        return self._rtt.rto(target, floor=RTO_FLOOR_FRAC * fixed,
                             ceiling=fixed)

    def _maybe_refresh_parent(self) -> None:
        """Re-request attachment from a parent that stopped serving us.

        If the parent's advertised INFO is ahead of ours but it has sent
        no data for ``parent_refresh_timeout``, it has probably dropped
        us from its CHILDREN (e.g. reconciled us away after a lost ack).
        An idempotent AttachRequest re-registers us and triggers a fill.
        """
        if self.parent is None or not self.config.enable_parent_refresh:
            return
        if self.maps.info_of(self.parent).max_seqno <= self.info.max_seqno:
            return
        if self.runtime.now() - self._parent_progress_at < self.config.parent_refresh_timeout:
            return
        self._parent_progress_at = self.runtime.now()  # pace the refreshes
        request = AttachRequest(child=self.me, child_info=self.info, attempt=0,
                                size_bits=self.config.control_size_bits)
        self.port.send(self.parent, request)
        self.runtime.trace("host.parent_refresh", str(self.me),
                            parent=str(self.parent))
        self.runtime.counter("proto.parent.refresh").inc()

    def _on_attach_timeout(self) -> None:
        if self._pending is None:
            return
        target = self._pending.current.target
        self.runtime.trace("host.attach_timeout", str(self.me), target=str(target))
        self.runtime.counter("proto.attach.timeouts").inc()
        if self.config.adaptive:
            self._rtt.on_timeout(target)  # Karn: back the peer's RTO off
        # The candidate may have registered us and lost the ack; tell it
        # to forget us so it does not keep feeding a phantom child.
        self.port.send(target, DetachNotice(
            child=self.me, size_bits=self.config.control_size_bits))
        self._pending.index += 1
        self._pending.attempt = next(self._attempt_counter)
        if self._pending.index >= len(self._pending.candidates):
            self._pending = None  # exhausted; wait for the next period
            if self.config.adaptive:
                # Every candidate timed out — either they are all down
                # or the path is melting.  Back off with jitter instead
                # of hammering the same list every attachment period.
                delay = self._attach_backoff.next_delay()
                self._attach_resume_at = self.runtime.now() + delay
                self.runtime.trace("host.attach_backoff", str(self.me),
                                    resume_in=delay)
                self.runtime.counter("proto.attach.backoff").inc()
            return
        self._send_attach_request()

    def _on_attach_request(self, request: AttachRequest, sender: HostId) -> None:
        if request.child not in self.children:
            # Keep the original registration time on repeat requests so
            # the reconcile grace period can actually elapse for a child
            # that keeps requesting but never adopts us.
            self._child_since[request.child] = self.runtime.now()
        self.children.add(request.child)
        self.maps.merge(request.child, request.child_info)
        self.maps.set_parent_view(request.child, self.me)
        ack = AttachAck(parent=self.me, attempt=request.attempt,
                        parent_info=self.info, parent_parent=self.parent,
                        size_bits=self.config.control_size_bits)
        self.port.send(request.child, ack)
        self.runtime.trace("host.child_added", str(self.me), child=str(request.child))
        # The new child's gaps (frontier included, since it is now a
        # child) are filled by the next periodic child gap-fill tick.
        # Filling synchronously here would push a large data batch onto
        # the trunk *before* knowing the ack survived — under congestion
        # that starves the acks themselves and livelocks attachment.

    def _on_attach_ack(self, ack: AttachAck, sender: HostId) -> None:
        self.maps.apply_info(sender, ack.parent_info, ack.parent_parent)
        pending = self._pending
        if (pending is None or ack.attempt != pending.attempt
                or sender != pending.current.target):
            # A stale ack: some earlier candidate answered after we moved
            # on.  It now wrongly lists us as a child; correct it, unless
            # it actually is our current parent.
            if sender != self.parent:
                self.port.send(sender, DetachNotice(
                    child=self.me, size_bits=self.config.control_size_bits))
            return
        candidate = pending.current
        if self.config.adaptive:
            # An unambiguous round trip (the attempt counter is Karn's
            # rule): request sent at _attach_sent_at, matching ack now.
            self._rtt.observe(sender, self.runtime.now() - self._attach_sent_at)
        self._attach_backoff.reset()
        self._attach_resume_at = 0.0
        self.runtime.cancel_timer(self._ack_timer)
        self._ack_timer = None
        self._pending = None
        old_parent = self.parent
        self.parent = sender
        self._parent_progress_at = self.runtime.now()
        self._arm_parent_timer()
        self.runtime.trace("host.attach_ok", str(self.me), parent=str(sender),
                            case=candidate.case, option=candidate.option,
                            old_parent=str(old_parent) if old_parent else None)
        self.runtime.counter("proto.attach.success").inc()
        self.runtime.counter(
            f"proto.attach.case.{candidate.case}.{candidate.option}").inc()
        if old_parent is not None and old_parent != sender:
            self.port.send(old_parent, DetachNotice(
                child=self.me, size_bits=self.config.control_size_bits))

    def _on_detach(self, notice: DetachNotice, sender: HostId) -> None:
        self.children.discard(notice.child)
        self._child_since.pop(notice.child, None)
        self.runtime.trace("host.child_removed", str(self.me),
                            child=str(notice.child))

    # ------------------------------------------------------------------
    # Parent liveness (Section 4.3, end)
    # ------------------------------------------------------------------

    def _parent_timeout_value(self) -> float:
        cfg = self.config
        intra = self.parent in self.cluster
        fixed = cfg.parent_timeout_intra if intra else cfg.parent_timeout_inter
        if not cfg.adaptive or self.parent is None:
            return fixed
        # The parent heartbeats (InfoMsg) once per exchange period:
        # allow a few missed beats plus one RTO of slack, but never
        # wait longer than the fixed timeout would have.
        period = cfg.info_intra_period if intra else cfg.info_inter_period
        deadline = (ADAPTIVE_PARENT_BEATS * period
                    + self._rtt.rto(self.parent, floor=0.0, ceiling=fixed))
        return min(max(deadline, RTO_FLOOR_FRAC * fixed), fixed)

    def _arm_parent_timer(self) -> None:
        """Move the parent's liveness deadline to one timeout from now.

        Runs on every packet from the parent, so it only moves
        ``_parent_deadline``; one armed timer chases the deadline
        (:meth:`_on_parent_timer`).  The timer is re-armed here only
        when the deadline moved *before* its firing time: the timeout
        shrinks when the cluster view moves the parent into our cluster
        or the parent's adaptive RTO drops.
        """
        if self.parent is None:
            return
        now = self.runtime.now()
        deadline = self._parent_deadline = now + self._parent_timeout_value()
        if self._parent_timer is None or deadline < self._parent_timer_at:
            self._start_parent_timer(now)

    def _start_parent_timer(self, now: float) -> None:
        self.runtime.cancel_timer(self._parent_timer)
        self._parent_timer_at = self._parent_deadline
        self._parent_timer = self.runtime.start_timer(
            _exact_delay(now, self._parent_deadline), self._on_parent_timer)

    def _on_parent_timer(self) -> None:
        self._parent_timer = None
        now = self.runtime.now()
        if now < self._parent_deadline:
            self._start_parent_timer(now)  # the parent spoke since arming
        else:
            self._on_parent_timeout()

    def _on_parent_timeout(self) -> None:
        if self.parent is None:
            return
        self.runtime.trace("host.parent_timeout", str(self.me),
                            parent=str(self.parent))
        self.runtime.counter("proto.parent.timeouts").inc()
        # Do not notify the (presumed dead) parent; just forget it and
        # let the attachment procedure find a new one (case I).
        self.parent = None
        self.runtime.cancel_timer(self._parent_timer)
        self._parent_timer = None
        self.runtime.call_soon(self._attachment_tick)

    def _detach_from_parent(self, reason: str) -> None:
        if self.parent is None:
            return
        self.port.send(self.parent, DetachNotice(
            child=self.me, size_bits=self.config.control_size_bits))
        self.runtime.trace("host.detach", str(self.me), parent=str(self.parent),
                            reason=reason)
        self.parent = None
        self.runtime.cancel_timer(self._parent_timer)
        self._parent_timer = None
