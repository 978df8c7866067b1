"""Anti-entropy epidemic broadcast ([Deme87], cited by the paper).

The paper points at Demers et al.'s epidemic algorithms as the solution
for the harder setting where hosts do not know all participants.  We
implement the classic push-pull anti-entropy variant as an extension
baseline (experiment E12):

* every host periodically picks one random partner and sends it a
  digest of its INFO set;
* the partner replies with the messages the requester lacks (push) and
  its own digest, prompting the requester to send back what the partner
  lacks (pull);
* optionally, a new message is eagerly pushed to ``fanout`` random
  hosts (rumor mongering) to cut initial latency.

Epidemic broadcast ignores link costs entirely — its sync partners are
uniformly random — which is exactly why the paper's cluster-tree beats
it on inter-cluster traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.delivery import DeliverCallback
from ..core.seqnoset import SeqnoSet
from ..core.wire import KIND_CONTROL, DataMsg
from ..io.interfaces import Runtime, Transport
from ..io.simbackend import SimDeployment
from ..net import BuiltTopology, HostId, Packet, TuplePayload
from .common import BaselineHostBase


class Digest(TuplePayload):
    """Anti-entropy digest: the sender's INFO snapshot."""

    __slots__ = ()

    sender: HostId
    info: SeqnoSet
    #: True when this digest is a reply (prevents infinite digest ping-pong)
    reply: bool
    size_bits: int

    kind = KIND_CONTROL

    def __new__(cls, sender: HostId, info: SeqnoSet, reply: bool = False,
                size_bits: int = 1_000) -> "Digest":
        return tuple.__new__(cls, (sender, info.copy(), reply, size_bits))


@dataclass(frozen=True)
class EpidemicConfig:
    """Tuning for the anti-entropy baseline."""

    sync_period: float = 2.0
    #: eager push of brand-new messages to this many random hosts
    fanout: int = 2
    #: cap on data messages pushed per sync exchange
    batch_limit: int = 10
    data_size_bits: int = 8_000
    digest_size_bits: int = 1_000

    def __post_init__(self) -> None:
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")
        if self.fanout < 0:
            raise ValueError("fanout must be non-negative")
        if self.batch_limit < 1:
            raise ValueError("batch_limit must be at least 1")


class EpidemicHost(BaselineHostBase):
    """One gossiping host."""

    def __init__(self, runtime: Runtime, port: Transport,
                 participants: List[HostId], config: EpidemicConfig,
                 deliver_callback: Optional[DeliverCallback] = None) -> None:
        super().__init__(runtime, port, deliver_callback)
        self.participants = sorted(h for h in participants if h != self.me)
        self.config = config
        self.info = SeqnoSet()
        self._rng = self.runtime.rng(f"epidemic.{self.me}")
        self._tasks = [self.runtime.start_periodic(
            config.sync_period, self._sync_tick,
            jitter=config.sync_period * 0.2,
            rng_stream=f"epidemic.{self.me}.sync", name="epidemic_sync")]

    def crash(self) -> None:
        """Not modelled: a crashed epidemic host would keep answering
        digests and its INFO set is not rolled back, so an inherited
        crash would be silently wrong."""
        raise NotImplementedError("the epidemic baseline has no crash model")

    # ------------------------------------------------------------------

    def _receive(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, DataMsg):
            if self.accept_data(payload, packet.src):
                self.info.add(payload.seq)
        elif isinstance(payload, Digest):
            self._answer_digest(payload, packet.src)

    def _answer_digest(self, digest: Digest, sender: HostId) -> None:
        # Push what the partner lacks.
        missing = self.info.difference(digest.info,
                                       limit=self.config.batch_limit)
        for seq in missing:
            msg = self.store.get(seq)
            if msg is not None:
                self.port.send(sender, DataMsg(
                    seq=msg.seq, content=msg.content,
                    created_at=msg.created_at, origin=msg.origin,
                    gapfill=True, size_bits=self.config.data_size_bits))
                self.runtime.counter("epidemic.pushed").inc()
        # Pull: reply with our digest once so the partner can push back.
        if not digest.reply:
            self.port.send(sender, Digest(
                sender=self.me, info=self.info, reply=True,
                size_bits=self.config.digest_size_bits))

    def _sync_tick(self) -> None:
        if not self.participants:
            return
        partner = self.participants[self._rng.randrange(len(self.participants))]
        self.port.send(partner, Digest(sender=self.me, info=self.info,
                                       size_bits=self.config.digest_size_bits))
        self.runtime.counter("epidemic.syncs").inc()


class EpidemicSource(EpidemicHost):
    """The host where new messages originate."""

    is_source = True

    def broadcast(self, content: object = None) -> int:
        """Issue one new broadcast message; returns its sequence number."""
        msg = self._issue(content, self.config.data_size_bits)
        seq = msg.seq
        self.info.add(seq)
        # Rumor mongering: eager push to a few random hosts.
        if self.participants and self.config.fanout:
            count = min(self.config.fanout, len(self.participants))
            for target in self._rng.sample(self.participants, count):
                self.port.send(target, msg)
        return seq


class EpidemicBroadcastSystem(SimDeployment):
    """Anti-entropy broadcast over a topology."""

    def __init__(
        self,
        built: BuiltTopology,
        config: Optional[EpidemicConfig] = None,
        source: Optional[HostId] = None,
        deliver_callback: Optional[DeliverCallback] = None,
    ) -> None:
        super().__init__(built, source)
        self.config = config or EpidemicConfig()
        for host_id in built.hosts:
            cls = EpidemicSource if host_id == self.source_id else EpidemicHost
            self.hosts[host_id] = cls(
                self.runtime, self.network.host_port(host_id), built.hosts,
                self.config, deliver_callback)
