"""Packets and the payload protocol.

A :class:`Packet` is what travels through the simulated network.  Its
payload is *opaque to servers* — the defining property of the paper's
nonprogrammable-server model: servers look only at the destination host
and forward; they never inspect, duplicate, or multicast application
content.

Each packet carries the paper's **cost bit**: initialized to 0 by the
sender and set to 1 by any server that forwards it over an *expensive*
link (the paper's suggested mechanism, Section 2).  Receiving hosts use
the bit to maintain their ``CLUSTER`` sets.
"""

from __future__ import annotations

import itertools
from collections import _tuplegetter  # type: ignore[attr-defined]
from typing import Any, ClassVar, List, Optional, Protocol, Tuple, runtime_checkable

from .addressing import HostId, LinkId

#: Default payload size used when a payload does not define one (bits).
DEFAULT_SIZE_BITS = 1_000

#: Default hop limit: packets caught in transient routing loops (stale
#: tables during convergence can point two servers at each other) are
#: discarded instead of bouncing forever.
DEFAULT_TTL = 32


@runtime_checkable
class Payload(Protocol):
    """What the network requires of application payloads.

    ``kind`` is a short tag used for traffic accounting (e.g. ``"data"``
    vs ``"control"``); ``size_bits`` drives transmission delay on
    bandwidth-limited links.
    """

    @property
    def kind(self) -> str: ...

    @property
    def size_bits(self) -> int: ...


class TuplePayload(tuple):
    """Base of every payload class: an immutable tuple of its fields.

    A subclass declares its fields as annotations, in order, and ends
    its ``__new__`` with one ``tuple.__new__(cls, fields)`` call; each
    field reads through namedtuple's C getter.  A payload equals only a
    payload of its own class, never a plain tuple, and :meth:`_replace`
    copies it through its constructor.
    """

    __slots__ = ()
    _fields: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Field {index}: {name}."))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> Tuple[Any, ...]:  # pickle and copy call __new__
        return tuple(self)

    def _replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` applied, built by the constructor."""
        cls: Any = type(self)  # a subclass's __new__ takes its fields
        return cls(**dict(zip(self._fields, self), **changes))


class RawPayload(TuplePayload):
    """A trivial payload for tests and low-level benchmarks."""

    __slots__ = ()

    content: object
    kind: str
    size_bits: int

    def __new__(cls, content: object = None, kind: str = "raw",
                size_bits: int = DEFAULT_SIZE_BITS) -> "RawPayload":
        return tuple.__new__(cls, (content, kind, size_bits))


_packet_ids = itertools.count(1)


class Packet:
    """One individually addressed message in flight.

    Attributes:
        src: originating host.
        dst: destination host (always a *single* destination — servers
            cannot handle multiply addressed messages).
        payload: opaque application payload.
        cost_bit: True once the packet has traversed an expensive link.
        hops: link identifiers traversed so far (diagnostics/accounting).
        sent_at: *true* virtual time the source host handed it to its
            server (measurement infrastructure; never visible to hosts).
        stamped_at: the send timestamp as written by the *sender's local
            clock* (what the paper's transit-time mechanism reads); equals
            sent_at unless a clock model skews the sender.
        ttl: hops left before a server discards the packet.
        packet_id: unique per original send; duplicates share the id of
            the original (useful to detect spontaneous duplication).

    A plain ``__slots__`` class compared and hashed by identity: a link
    keys its in-flight packets by the object.  ``kind`` and
    ``size_bits`` are read through to the payload on every access,
    because chaos taps replace ``payload`` in place.
    """

    __slots__ = ("src", "dst", "payload", "cost_bit", "hops", "sent_at",
                 "stamped_at", "ttl", "packet_id")

    def __init__(
        self,
        src: HostId,
        dst: HostId,
        payload: Payload,
        cost_bit: bool = False,
        hops: Optional[List[LinkId]] = None,
        sent_at: float = 0.0,
        stamped_at: float = 0.0,
        ttl: int = DEFAULT_TTL,
        packet_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.cost_bit = cost_bit
        self.hops = [] if hops is None else hops
        self.sent_at = sent_at
        self.stamped_at = stamped_at
        self.ttl = ttl
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    @property
    def size_bits(self) -> int:
        """Serialized size of this message in bits."""
        return getattr(self.payload, "size_bits", DEFAULT_SIZE_BITS)

    @property
    def kind(self) -> str:
        """Payload class tag used for traffic accounting."""
        return getattr(self.payload, "kind", "raw")

    def fork(self) -> "Packet":
        """Copy for duplication/fan-out; shares packet_id and payload."""
        return Packet(self.src, self.dst, self.payload, self.cost_bit,
                      list(self.hops), self.sent_at, self.stamped_at, self.ttl,
                      self.packet_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "$" if self.cost_bit else ""
        return f"<Packet #{self.packet_id} {self.src}->{self.dst} {self.kind}{flag}>"


def make_packet(
    src: HostId,
    dst: HostId,
    payload: Optional[Payload] = None,
    sent_at: float = 0.0,
) -> Packet:
    """Convenience constructor (defaults to a RawPayload)."""
    return Packet(src=src, dst=dst, payload=payload or RawPayload(), sent_at=sent_at)
