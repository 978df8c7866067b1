"""Adversarial (Byzantine-ish) host misbehavior injection.

Every other injector in this package models *benign* faults: crashes,
flaps, partitions, bit rot.  The paper's sharpest claim, however, is
architectural — the nonprogrammable servers carry no correctness
obligations, the hosts carry all of them — so the sharpest test is a
host that holds up its end of the wire protocol while violating its
*semantics*.  :class:`AdversaryHarness` wraps selected hosts in
misbehaving **personas** by interposing on their network port's send
and receive taps (:attr:`~repro.net.hostiface.HostPort.send_tap`,
:attr:`~repro.net.hostiface.HostPort.tap`); the host's own protocol
logic keeps running, but what actually crosses the wire is the
persona's edit of it.

Personas (Bonomi/Farina/Tixeuil's locally-bounded model is the frame:
``k`` misbehaving hosts, placed, and we ask which invariants survive):

* ``stale_info`` — the host's outbound INFO advertisements are frozen
  at the snapshot taken when the persona activates, so the host
  forever under-claims what it holds (neighbors waste gap-fill traffic
  on it; as a parent it advertises no progress).
* ``equivocate`` — seqno equivocation: different INFO claims to
  different neighbors.  Half its peers (by name CRC parity) see the
  truth; the other half see a claim inflated by ``lie_ahead`` phantom
  seqnos, baiting them into attaching to a parent that can never
  supply the promised messages.
* ``ack_no_deliver`` — claims receipt without delivering.  Inbound
  data is swallowed before the protocol sees it, yet outbound INFO
  advertises the swallowed seqnos (tree), or an ``AckMsg`` is returned
  anyway (basic), so the supplier crosses the message off and never
  retransmits.
* ``selective_forward`` — forwards control traffic faithfully (so it
  stays attached and keeps its children) but drops each outbound data
  message with probability ``drop_frac``: a data black hole sitting on
  a live branch of the tree.
* ``replay_control`` — records its own outbound control messages and
  periodically re-sends stale ones with *fresh* uids, so duplicate
  suppression (which keys on uid) cannot screen them out and receivers
  must tolerate protocol state apparently winding backwards.

All persona edits go through :func:`repro.core.wire.forged_copy`, so
every forged payload carries a *valid* checksum: wire hardening
catches accidents, not malice, and these experiments measure exactly
what remains when it doesn't.  The info-editing personas are
duck-typed on the advertisement field rather than a concrete class,
so they apply equally to the tree's ``InfoMsg``/``AttachAck`` and the
epidemic baseline's ``Digest`` — the same lie, told in whichever wire
vocabulary the protocol under test speaks.

Composition and the heal-by horizon
-----------------------------------

``AdversarySpec`` windows compose into :class:`~repro.chaos.ChaosSpec`
(``adversaries=...``) but are deliberately **exempt** from the rule
that every fault ends before ``heal_by``: a Byzantine host is not a
fault the network heals, and with a forced end the tree protocol
simply recovers and no containment question remains.  The heal-by
guarantee is therefore scoped to *benign* faults; reliability verdicts
under adversaries are taken over the correct hosts only (see
:mod:`repro.verify.containment` and :mod:`repro.fuzz.properties`).

Determinism: all randomness comes from one named RNG stream, persona
activation/deactivation are simulator events, and the taps are pure
functions of (payload, destination, rng), so a (seed, spec) pair
replays the identical misbehavior sequence.  With no adversaries
configured nothing is installed and no RNG stream is created — runs
are byte-identical to a build without this module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.seqnoset import SeqnoSet
from ..core.wire import DataMsg, forged_copy
from ..net import HostId, Packet, Payload
from ..sim import Entry, Simulator

_INF = float("inf")

#: every persona the harness implements, in canonical order
PERSONAS: Tuple[str, ...] = (
    "stale_info",
    "equivocate",
    "ack_no_deliver",
    "selective_forward",
    "replay_control",
)

#: how many of its own control sends a replay_control persona remembers
_REPLAY_MEMORY = 32


def _info_field(payload: Payload) -> Optional[str]:
    """The payload's INFO-advertisement field name, if it carries one.

    Duck-typed on purpose: the tree's ``InfoMsg``, its ``AttachAck``
    (``parent_info``), and the epidemic baseline's ``Digest`` all
    advertise a :class:`SeqnoSet`, so the info-editing personas apply
    to whichever protocol is under test without importing any of them.
    """
    if isinstance(getattr(payload, "info", None), SeqnoSet):
        return "info"
    if isinstance(getattr(payload, "parent_info", None), SeqnoSet):
        return "parent_info"
    return None


@dataclass(frozen=True)
class AdversarySpec:
    """Host ``host`` runs ``persona`` during [start, end).

    ``end`` defaults to forever: a Byzantine host usually stays
    Byzantine, and (unlike every benign fault) adversary windows are
    exempt from the ChaosSpec heal-by validation.  A finite ``end``
    models a compromised-then-cleaned host; at ``end`` the taps come
    off and the host is honest again (its internal state was always
    maintained honestly — only its wire behavior lied).
    """

    host: str
    persona: str
    start: float = 0.0
    end: float = _INF
    #: equivocate: phantom seqnos claimed beyond the true maximum
    lie_ahead: int = 3
    #: selective_forward: per-message drop probability for data
    drop_frac: float = 1.0
    #: replay_control: seconds between stale re-sends
    replay_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.persona not in PERSONAS:
            raise ValueError(
                f"unknown persona {self.persona!r}; expected one of {PERSONAS}")
        if self.end <= self.start:
            raise ValueError(f"end {self.end} must be after start {self.start}")
        if self.lie_ahead < 1:
            raise ValueError("lie_ahead must be at least 1")
        if not 0.0 <= self.drop_frac <= 1.0:
            raise ValueError(
                f"drop_frac must be a probability in [0, 1], got {self.drop_frac}")
        if self.replay_interval <= 0:
            raise ValueError("replay_interval must be positive")


class _Persona:
    """One active persona on one host: the pair of installed taps."""

    def __init__(self, harness: "AdversaryHarness", spec: AdversarySpec,
                 port) -> None:
        self.harness = harness
        self.sim = harness.sim
        self.spec = spec
        self.port = port
        self._rng = harness._rng
        self._active = False
        self._cancelled = False
        #: previously installed taps (e.g. PacketChaos's); we chain to them
        self._prev_recv = None
        self._prev_send = None
        self._my_recv = None
        self._my_send = None
        # -- persona state --
        self._stale_snapshot: Optional[SeqnoSet] = None
        self._claimed = SeqnoSet()
        self._replay_log: List[Tuple[HostId, Payload]] = []
        self._replay_event: Optional[Entry] = None

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        if self._cancelled or self._active:
            return
        self._active = True
        self._prev_recv = self.port.tap
        self._prev_send = self.port.send_tap
        self._my_recv = self._recv_tap
        self._my_send = self._send_tap
        self.port.tap = self._my_recv
        self.port.send_tap = self._my_send
        if self.spec.persona == "replay_control":
            self._arm_replay()
        self.sim.trace.emit("chaos.adversary.on", str(self.port.host_id),
                            persona=self.spec.persona)
        self.sim.metrics.counter("chaos.adversary.active").inc()

    def uninstall(self) -> None:
        if not self._active:
            return
        self._active = False
        # Only restore taps we still own; someone may have chained over us.
        if self.port.tap is self._my_recv:
            self.port.tap = self._prev_recv
        if self.port.send_tap is self._my_send:
            self.port.send_tap = self._prev_send
        if self._replay_event is not None:
            self.sim.try_cancel(self._replay_event)
            self._replay_event = None
        self.sim.trace.emit("chaos.adversary.off", str(self.port.host_id),
                            persona=self.spec.persona)

    # -- tap plumbing ------------------------------------------------------

    def _recv_tap(self, packet: Packet) -> bool:
        if self._active and self._handle_recv(packet):
            return True
        prev = self._prev_recv
        return prev(packet) if prev is not None else False

    def _send_tap(self, dst: HostId, payload: Payload) -> bool:
        if self._active and self._handle_send(dst, payload):
            return True
        prev = self._prev_send
        return prev(dst, payload) if prev is not None else False

    # -- persona behavior --------------------------------------------------

    def _handle_recv(self, packet: Packet) -> bool:
        """True if the persona consumed the inbound packet."""
        if self.spec.persona != "ack_no_deliver":
            return False
        payload = packet.payload
        if not isinstance(payload, DataMsg):
            return False
        # Swallow the data: the host never delivers or forwards it, but
        # remembers the seqno so outbound claims (INFO or an AckMsg)
        # assert receipt and the supplier crosses it off for good.
        self._claimed.add(payload.seq)
        self.sim.metrics.counter("chaos.adversary.swallowed").inc()
        self.sim.trace.emit("chaos.adversary.swallow", str(self.port.host_id),
                            src=str(packet.src), seq=payload.seq)
        ack = self.harness._make_ack(payload, self.port.host_id)
        if ack is not None:
            self.port.send_raw(packet.src, ack)
        return True

    def _handle_send(self, dst: HostId, payload: Payload) -> bool:
        """True if the persona consumed (dropped or replaced) the send."""
        persona = self.spec.persona
        if persona == "selective_forward":
            if (isinstance(payload, DataMsg)
                    and self._rng.random() < self.spec.drop_frac):
                self.sim.metrics.counter("chaos.adversary.dropped_data").inc()
                self.sim.trace.emit("chaos.adversary.drop",
                                    str(self.port.host_id), dst=str(dst),
                                    seq=payload.seq)
                return True
            return False
        if persona == "stale_info":
            forged = self._stale_edit(payload)
        elif persona == "equivocate":
            forged = self._equivocate_edit(dst, payload)
        elif persona == "ack_no_deliver":
            forged = self._claim_edit(payload)
        else:  # replay_control: record, send unmodified
            self._record_for_replay(dst, payload)
            return False
        if forged is None:
            return False
        self.sim.metrics.counter("chaos.adversary.forged").inc()
        self.port.send_raw(dst, forged)
        return True

    def _stale_edit(self, payload: Payload) -> Optional[Payload]:
        """Freeze every outbound INFO advertisement at activation time."""
        field = _info_field(payload)
        if field == "info":
            if self._stale_snapshot is None:
                self._stale_snapshot = payload.info.copy()
                return None  # the first advertisement is the honest one
            return forged_copy(payload, info=self._stale_snapshot)
        if field == "parent_info" and self._stale_snapshot is not None:
            return forged_copy(payload, parent_info=self._stale_snapshot)
        return None

    def _equivocate_edit(self, dst: HostId,
                         payload: Payload) -> Optional[Payload]:
        """Tell half the neighbors the truth, the other half a claim
        ``lie_ahead`` seqnos past it (a deterministic per-peer split,
        so each neighbor consistently sees one story)."""
        field = _info_field(payload)
        if field is None:
            return None
        if zlib.crc32(str(dst).encode("utf-8")) % 2 == 0:
            return None  # this neighbor gets the honest story
        true_info: SeqnoSet = getattr(payload, field)
        inflated = true_info.copy()
        top = inflated.max_seqno
        inflated.add_range(top + 1, top + self.spec.lie_ahead)
        self.sim.metrics.counter("chaos.adversary.equivocated").inc()
        return forged_copy(payload, **{field: inflated})

    def _claim_edit(self, payload: Payload) -> Optional[Payload]:
        """Advertise the swallowed seqnos as if they had been delivered."""
        if _info_field(payload) != "info" or not self._claimed.max_seqno:
            return None
        merged = payload.info.copy()
        merged.update(self._claimed)
        return forged_copy(payload, info=merged)

    # -- replay_control ----------------------------------------------------

    def _record_for_replay(self, dst: HostId, payload: Payload) -> None:
        if getattr(payload, "uid", None) is None:
            return  # only control traffic carries uids worth replaying
        self._replay_log.append((dst, payload))
        if len(self._replay_log) > _REPLAY_MEMORY:
            self._replay_log.pop(0)

    def _arm_replay(self) -> None:
        self._replay_event = self.sim.schedule(
            self.spec.replay_interval, self._replay_tick)

    def _replay_tick(self) -> None:
        if not self._active:
            return
        if self._replay_log:
            # Oldest entries are the most out of date, hence the most
            # confusing; a fresh uid defeats duplicate suppression.
            dst, payload = self._replay_log[
                self._rng.randrange(len(self._replay_log))]
            self.sim.metrics.counter("chaos.adversary.replayed").inc()
            self.sim.trace.emit("chaos.adversary.replay",
                                str(self.port.host_id), dst=str(dst),
                                payload_kind=payload.kind)
            self.port.send_raw(dst, forged_copy(payload, uid=0))
        self._arm_replay()


class AdversaryHarness:
    """Installs :class:`AdversarySpec` personas on a system's hosts."""

    def __init__(
        self,
        sim: Simulator,
        system,
        specs: Sequence[AdversarySpec],
        rng_stream: str = "chaos.adversary",
    ) -> None:
        self.sim = sim
        self.system = system
        self.specs: Tuple[AdversarySpec, ...] = tuple(specs)
        for spec in self.specs:
            if spec.host == str(system.source_id):
                raise ValueError(
                    f"{spec}: the source cannot be an adversary — with a "
                    f"lying source every delivery claim is vacuous")
        self._rng = sim.rng.stream(rng_stream)
        self._personas: List[_Persona] = []
        self._started = False

    def adversary_hosts(self) -> frozenset:
        """Names of hosts that misbehave at any point in the run."""
        return frozenset(spec.host for spec in self.specs)

    def start(self) -> "AdversaryHarness":
        """Schedule every persona's activation window; returns self."""
        if self._started:
            return self
        self._started = True
        for spec in self.specs:
            persona = _Persona(
                self, spec, self.system.network.host_port(HostId(spec.host)))
            self._personas.append(persona)
            self.sim.schedule_at(spec.start, persona.install)
            if spec.end != _INF:
                self.sim.schedule_at(spec.end, persona.uninstall)
        self.sim.trace.emit("chaos.adversary.start", "adversary",
                            personas=len(self._personas))
        return self

    def stop(self) -> None:
        """Deactivate every persona immediately and for good (taps
        restored; activation windows that have not opened yet never
        will)."""
        for persona in self._personas:
            persona._cancelled = True
            persona.uninstall()

    # ------------------------------------------------------------------

    def _make_ack(self, data: DataMsg, me: HostId):
        """A protocol-correct AckMsg when the system under test uses
        acks (the basic baseline); None for the tree protocol, whose
        receipt claims travel in INFO instead."""
        host = self.system.hosts.get(me)
        source = getattr(host, "source", None)
        config = getattr(host, "config", None)
        if source is None or not hasattr(config, "ack_size_bits"):
            return None
        from ..baseline.basic import AckMsg

        return AckMsg(seq=data.seq, sender=me,
                      size_bits=config.ack_size_bits)
