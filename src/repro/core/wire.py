"""Wire formats: the protocol's message payloads.

Five message types implement the whole protocol:

* :class:`DataMsg` — a broadcast data message (possibly a gap-filling
  redelivery).  Carries the source's sequence number and generation
  time (the timestamp the paper suggests for transit-time estimation;
  we use it for delay accounting).
* :class:`InfoMsg` — the periodic INFO-set + parent-pointer exchange
  (Section 4.2).  Doubles as the liveness heartbeat, and carries the
  NTP-style ``stamp``/``echo_stamp``/``echo_hold`` triple that feeds
  the adaptive control plane's RTT estimators (:mod:`repro.core.rtt`).
* :class:`AttachRequest` / :class:`AttachAck` — the attachment
  handshake.  The request carries the child's INFO set so the new
  parent can immediately fill its gaps (Section 4.4); the ack carries
  the parent's INFO set and parent pointer for the child's MAP.
* :class:`DetachNotice` — tells an old parent that a child has left.

One payload table
-----------------

Each message is declared once, as a :class:`WireMessage` subclass: a
frame tag, a name, and its fields in order, each annotated with its
*kind* (:data:`_KINDS`: a host, an optional host, a sequence number, a
plain int, float or bool, a size, a uid, the checksum, an INFO set or
the content).  Everything else is derived from that declaration when
the class is created, and compiled to straight-line code the way
``collections.namedtuple`` compiles its ``__new__``:

* the constructor: a field per parameter, in order, with the declared
  defaults; it snapshots an INFO set, draws a uid when given 0 and
  computes the checksum when given ``_AUTO``;
* the checksum canonical: the CRC-32 of the name, then every field
  except ``size_bits`` and ``checksum`` in declared order, a host
  folded through ``_HOST_CRC``, an INFO set through its snapshot's
  cached ``canonical`` and the content through ``_content_crc``;
* the frame layout: the fixed fields in declared order, then the
  variable field's two-number header, then its bytes;
* the decoder's per-kind checks: a float is finite, a sequence number
  and a uid are at least 1, a bool byte is 0 or 1, and a host index is
  inside the closed table.  Whatever decodes re-encodes to the frame
  it came from.

Reordering a declaration therefore moves frame bytes *and* checksums:
``tests/core/test_wire_golden.py`` pins both.

Payloads are :class:`~repro.net.message.TuplePayload` classes: a tuple
of fields built by one C call at the end of ``__new__``, read through C
getters, with a class-level ``kind``.  Assigning a field raises, and
``_replace`` copies a payload through its constructor.  INFO sets are
shared frozen snapshots: every payload built while a host's INFO set
is unchanged carries the same
:class:`~repro.core.seqnoset.FrozenSeqnoSet`, and a receiver may keep
it without copying — its mutators raise.

Wire hardening
--------------

Every payload carries a ``checksum`` over its semantic fields — the
tuple hash of the fully *numeric* canonical above, which is
deterministic across processes because Python only randomizes
str/bytes hashing — computed at construction.  Receivers call
:func:`checksum_ok` and drop-and-count mismatches, so a corrupted
message can garble *one* delivery but never wedge protocol state.
Control payloads additionally carry a ``uid`` unique per construction;
link-level duplicates and chaos-injected replays share the original's
``uid`` (packet forks share the payload object), which is what the
host's duplicate-control suppression keys on.  :func:`corrupted_copy`
is the injection helper chaos uses to flip a payload's checksum.

Receivers attribute control-plane drops in two dimensions: corrupt
payloads (checksum mismatch) split into ``dup_uid`` (a uid the receiver
has already accepted from that sender — a mangled retransmission) and
``forged_uid`` (a uid never seen before — bit rot on first contact, or
a fabricated message); the legacy aggregate counters keep their names.
Checksums only catch *accidents*: a misbehaving host constructs
payloads whose checksums validate perfectly, which is what
:func:`forged_copy` models for the adversary personas in
:mod:`repro.chaos.adversary`.

Frame codec
-----------

:func:`encode_frame` / :func:`decode_frame` are the real-socket wire
format: an explicit, versioned, length-checked binary encoding of the
five payloads above plus :class:`~repro.net.message.RawPayload`.  No
code is ever loaded from the wire.  Every host id in a frame — the
sender and every id inside the payload — is an index into the
deployment's closed :class:`HostTable`, so a name that arrives on the
wire never reaches :class:`~repro.net.addressing.HostId`.  Every field
travels verbatim (``uid`` and ``checksum`` included), so the receiver
validates the sender's checksum exactly as in-sim.  Anything that is
not a well-formed frame for this deployment raises :class:`FrameError`
and nothing else; the transport counts it as a drop.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from ..net import HostId, RawPayload, TuplePayload
from .seqnoset import FrozenSeqnoSet, SeqnoSet

if TYPE_CHECKING:
    from typing import dataclass_transform
else:  # the runtime needs nothing from it (and Python 3.9 lacks it)
    def dataclass_transform(**_: Any) -> Callable[[Any], Any]:
        return lambda cls: cls

#: payload kind tags used for traffic accounting
KIND_DATA = "data"
KIND_CONTROL = "control"

#: sentinel meaning "compute the checksum at construction"
_AUTO = -1

_next_uid = itertools.count(1).__next__


def _scrc(s: str) -> int:
    return zlib.crc32(s.encode("utf-8"))


class _HostCrcs(Dict[Optional[HostId], int]):
    """Host id -> CRC-32 of its name (-1 for "no host").

    ``_HOST_CRC[host]`` is one C-level dict lookup; a host's first
    lookup fills its entry.  Host ids are interned and repeat endlessly,
    so the table stays as small as the deployment.
    """

    def __missing__(self, host: HostId) -> int:
        value = self[host] = _scrc(host.name)
        return value


_HOST_CRC = _HostCrcs({None: -1})


def _content_crc(content: object) -> int:
    """CRC-32 of a data payload's content rendering (uncached: contents
    are arbitrary application objects, unbounded in cardinality)."""
    return zlib.crc32(repr(content).encode("utf-8"))


def compute_checksum(canonical: object) -> int:
    """32-bit checksum of a canonical field tuple.

    The wire payloads build *numeric* canonicals (strings pre-folded
    through CRC-32 by :func:`_scrc`), for which Python's tuple hash is
    both C-fast and stable across processes — only str/bytes hashing is
    randomized.  This is the per-construction and per-receive hot path,
    which is why it is not a CRC over a ``repr`` rendering.  (The
    constructors inline it.)
    """
    return hash(canonical) & 0xFFFFFFFF


def checksum_ok(payload: object) -> bool:
    """Validate a payload's checksum; payloads without one pass."""
    expected = getattr(payload, "checksum", None)
    return expected is None or expected == compute_checksum(
        payload._canonical())  # type: ignore[attr-defined]


def corrupted_copy(payload: object) -> Optional[object]:
    """A copy of ``payload`` whose checksum no longer validates.

    Models in-flight bit corruption at the receiver-visible level.
    Returns None for payloads without a checksum field (nothing to
    corrupt detectably — e.g. a piggyback bundle; its inner messages
    are checksummed individually).
    """
    checksum = getattr(payload, "checksum", None)
    if checksum is None:
        return None
    return payload._replace(checksum=checksum ^ 0x5A5A5A5A)  # type: ignore[attr-defined]


def forged_copy(payload: object, **overrides: object) -> object:
    """A copy of ``payload`` with fields overridden and a *valid*
    checksum recomputed over the forged contents.

    This is the adversary-persona helper (:mod:`repro.chaos.adversary`):
    wire checksums detect accidental corruption, not malice — a
    misbehaving host constructs internally consistent payloads that
    pass every receive-side validity check.  The copy keeps the
    original ``uid`` unless the caller overrides it (``uid=0`` draws a
    fresh one), so forgeries interact with duplicate-control
    suppression exactly like honest traffic.
    """
    if getattr(payload, "checksum", None) is not None:
        overrides.setdefault("checksum", _AUTO)
    return payload._replace(**overrides)  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# Frame codec: the real-socket wire format
# ----------------------------------------------------------------------
#
# A frame is one datagram: a fixed header, then one payload.  All
# integers are big-endian; every frame's length is exactly what its
# header and counts say.
#
#   header   version u8 | payload tag u8 | host-table fingerprint u32
#            | sender index u16 | sender's send-time stamp f64
#
# A declared message's payload follows the rule in the module
# docstring: its fixed fields in declared order, then the variable
# field's header and bytes.  Struct codes per kind are in _KINDS: a host
# is a u16 index into the HostTable (0xFFFF: "no host"), a seq or int
# i64, a float f64, a bool u8, a size or checksum u32, a uid u64.
#
#   content  tag u8 | length u32 | bytes
#   seqnos   floor i64 | run count u16 | (lo i64, hi i64) per run
#   raw      size_bits u32 | kind length u8 | content tag u8
#            | content length u32 | kind (UTF-8) | content bytes

#: frame format version; a frame carrying any other is dropped
WIRE_VERSION = 1

#: host index meaning "no host" (a None parent pointer)
_NO_HOST = 0xFFFF

_HEADER = "!BBIHd"
_HEADER_SIZE = struct.calcsize(_HEADER)
_HEADER_S = struct.Struct(_HEADER)

_TAG_RAW = 6

#: content tags: the application contents a frame can carry
_C_NONE, _C_STR, _C_BYTES = range(3)

#: per-run-count structs for the common small counts
_RUN_STRUCTS: Dict[int, struct.Struct] = {}

#: payload class -> (frame tag, encoder); frame tag -> decoder
_ENCODERS: Dict[type, Tuple[int, Callable[..., bytes]]] = {}
_DECODERS: Dict[int, Callable[[HostTable, bytes], object]] = {}


class FrameError(ValueError):
    """A datagram that is not a well-formed frame for this deployment."""


class HostTable:
    """A deployment's closed host table: host id ↔ frame index.

    Indices follow name order, so two ends that know the same hosts
    build the same table whatever order they learnt them in.  The
    table's CRC-32 ``fingerprint`` rides in every frame header: a frame
    built against another table is dropped instead of having its
    indices read as the wrong hosts.
    """

    __slots__ = ("hosts", "index", "fingerprint")

    def __init__(self, hosts: Iterable[HostId]) -> None:
        self.hosts: Tuple[HostId, ...] = tuple(sorted(set(hosts)))
        if len(self.hosts) >= _NO_HOST:
            raise ValueError(f"a host table holds fewer than {_NO_HOST} hosts")
        #: host id (or its plain name) -> index
        self.index: Dict[str, int] = {h: i for i, h in enumerate(self.hosts)}
        self.fingerprint = zlib.crc32("\n".join(self.hosts).encode("utf-8"))


def _pack_content(content: object) -> Tuple[int, bytes]:
    kind = type(content)
    if kind is str:
        return _C_STR, content.encode("utf-8")  # type: ignore[attr-defined]
    if content is None:
        return _C_NONE, b""
    if kind is bytes:
        return _C_BYTES, content  # type: ignore[return-value]
    raise TypeError(f"no wire encoding for content of type {kind.__name__}")


def _unpack_content(tag: int, blob: bytes) -> object:
    if tag == _C_STR:
        return blob.decode("utf-8")
    if tag == _C_NONE and not blob:
        return None
    if tag == _C_BYTES:
        return bytes(blob)
    raise FrameError(f"bad content (tag {tag}, {len(blob)} bytes)")


def _runs_struct(count: int) -> struct.Struct:
    runs = _RUN_STRUCTS.get(count)
    if runs is None:
        runs = struct.Struct(f"!{2 * count}q")
        if count <= 16:  # the wire must not grow the cache without bound
            _RUN_STRUCTS[count] = runs
    return runs


def _pack_seqnos(info: SeqnoSet) -> Tuple[int, int, bytes]:
    """``(floor, run count, runs)`` of an INFO set: its frame header and tail."""
    floor, los, his = info.runs()
    count = len(los)
    flat = [0] * (2 * count)
    flat[0::2] = los
    flat[1::2] = his
    return floor, count, _runs_struct(count).pack(*flat)


def _unpack_seqnos(frame: bytes, offset: int, floor: int,
                   count: int) -> FrozenSeqnoSet:
    """The set whose runs end the frame at ``offset``, built frozen: the
    payload adopts it as its snapshot."""
    flat = _runs_struct(count).unpack_from(frame, offset)
    return FrozenSeqnoSet.from_runs(floor, list(flat[0::2]),
                                    list(flat[1::2]))


# ----------------------------------------------------------------------
# The payload table: field kinds and the code derived from them
# ----------------------------------------------------------------------

#: the field kinds without a Python type of their own (annotation names)
Seq = int  # a broadcast sequence number
Size = int  # the simulated size in bits: outside the checksum
Uid = int  # unique per construction; 0 draws one
Checksum = int  # _AUTO computes it
Seqnos = SeqnoSet  # stored as its frozen snapshot
Content = object  # None, str or bytes on the wire


class _Kind(NamedTuple):
    """How one field kind is built, checksummed, framed and checked.

    Each string is a code template over the field's name ``{0}``; a
    decoder template may also use ``{1}``, the offset of the frame's
    variable tail.  A *variable* kind (non-empty ``tail``) packs a
    two-number header ``_a, _b`` with the fixed fields: its ``encode``
    is a statement that sets ``_a``, ``_b`` and ``_tail`` (the bytes
    that end the frame), and ``tail`` is the byte length ``_b`` implies.
    A message has at most one variable field.
    """

    code: str  # struct code(s) in the fixed part of the frame
    canonical: str = "{0}"  # its term in the checksum canonical ("": none)
    encode: str = "{0}"  # what is packed
    decode: str = "{0}"  # the field, from what was unpacked
    bad: str = ""  # when an unpacked value is malformed ...
    why: str = ""  # ... and the FrameError's words for it
    new: str = ""  # a constructor statement
    tail: str = ""  # the byte length of a variable field's tail


#: field annotation -> its kind
_KINDS: Dict[str, _Kind] = {
    "HostId": _Kind("H", "_HOST_CRC[{0}]", "table.index[{0}]", "table.hosts[{0}]"),
    "Optional[HostId]": _Kind(
        "H", "_HOST_CRC[{0}]", "_NO_HOST if {0} is None else table.index[{0}]",
        "None if {0} == _NO_HOST else table.hosts[{0}]"),
    "Seq": _Kind("q", bad="{0} < 1", why="is not a positive sequence number"),
    "int": _Kind("q"),
    "float": _Kind("d", bad="not isfinite({0})", why="is not finite"),
    "bool": _Kind("B", decode="{0} == 1", bad="{0} > 1", why="is not 0 or 1"),
    "Size": _Kind("I", canonical=""),
    "Uid": _Kind("Q", bad="{0} < 1", why="is 0", new="{0} = {0} or _next_uid()"),
    "Checksum": _Kind("I", canonical=""),
    "Seqnos": _Kind("qH", "{0}.canonical", "_a, _b, _tail = _pack_seqnos({0})",
                    "_unpack_seqnos(frame, {1}, _a, _b)", new="{0} = {0}.snapshot()",
                    tail="16 * _b"),
    "Content": _Kind("BI", "_content_crc({0})",
                     "_a, _tail = (_C_STR, {0}.encode()) if type({0}) is str "
                     "else _pack_content({0}); _b = len(_tail)",
                     "frame[{1}:].decode() if _a == _C_STR else _unpack_content(_a, frame[{1}:])",
                     tail="_b"),
}

_TEMPLATE = """
def _make(_cls, _frame, _body):
    def __new__(_cls, {args}):
        {new}
        if checksum == _AUTO: checksum = hash(({canonical},)) & 0xFFFFFFFF
        return _tuple_new(_cls, ({args},))
    def _canonical(self):
        {args}, = self
        return ({canonical},)
    def encode(table, head, msg):
        {args}, = msg
        {prelude}
        return _frame.pack(*head, {packed}) + _tail
    def decode(table, frame):
        {unpacked}, = _body.unpack_from(frame, _HEADER_SIZE)
        if len(frame) != {length}: raise FrameError("frame length does not match a {cls}")
        {checks}
        return _tuple_new(_cls, ({decoded},))
    return __new__, _canonical, encode, decode
"""

_tuple_new = tuple.__new__
_LINE = "\n        "  # between statements of a _TEMPLATE body


@dataclass_transform(frozen_default=True)
class WireMessage(TuplePayload):
    """Base of the five protocol messages: see "One payload table".

    ``class M(WireMessage, tag=..., name=...)`` declares a message: its
    annotated fields, with their defaults, are the whole declaration,
    and one of them is ``checksum: Checksum = _AUTO``.  Creating the
    class compiles its ``__new__``, ``_canonical``, encoder and decoder
    from its fields' kinds.
    """

    __slots__ = ()

    def __init_subclass__(cls, tag: int, name: str, **kwargs: Any) -> None:
        # Read the defaults before TuplePayload turns each field into its getter.
        defaults = tuple(vars(cls)[field] for field in cls.__annotations__ if field in vars(cls))
        super().__init_subclass__(**kwargs)
        declared = [(field, _KINDS[cls.__annotations__[field]]) for field in cls._fields]
        fixed = [(field, kind) for field, kind in declared if not kind.tail]
        variable = [(field, kind) for field, kind in declared if kind.tail]
        header = ["_a", "_b"] if variable else []
        body = "".join(kind.code for _, kind in fixed + variable)
        end = _HEADER_SIZE + struct.calcsize("!" + body)
        source = _TEMPLATE.format(
            cls=cls.__name__, args=", ".join(cls._fields),
            new=_LINE.join(kind.new.format(field) for field, kind in declared if kind.new),
            canonical=", ".join([str(_scrc(name))] + [
                kind.canonical.format(field) for field, kind in declared if kind.canonical]),
            prelude="".join(kind.encode.format(field) for field, kind in variable) or "_tail = b''",
            packed=", ".join([kind.encode.format(field) for field, kind in fixed] + header),
            unpacked=", ".join([field for field, _ in fixed] + header),
            length=" + ".join([str(end)] + [kind.tail for _, kind in variable]),
            checks=_LINE.join(f"if {kind.bad.format(field)}: raise FrameError("
                              f"'{cls.__name__}.{field} {kind.why}')"
                              for field, kind in fixed if kind.bad),
            decoded=", ".join(kind.decode.format(field, end) for field, kind in declared))
        namespace: Dict[str, Any] = {}
        # Compiled under this module's file name: profilers charge the
        # generated code to the wire layer, as they did the hand-written.
        exec(compile(source, __file__, "exec"), globals(), namespace)
        new, canonical, encode, _DECODERS[tag] = namespace["_make"](
            cls, struct.Struct(_HEADER + body), struct.Struct("!" + body))
        new.__defaults__ = defaults
        setattr(cls, "__new__", staticmethod(new))
        setattr(cls, "_canonical", canonical)
        _ENCODERS[cls] = (tag, encode)


class DataMsg(WireMessage, tag=1, name="data"):
    """One broadcast data message.

    ``gapfill`` marks redeliveries (sent to fill another host's gap);
    receivers treat any message numbered at or below their current
    maximum as gap-filling regardless of the flag — the flag exists for
    traffic accounting and traces.
    """

    __slots__ = ()

    seq: Seq
    content: Content
    created_at: float
    origin: HostId
    gapfill: bool = False
    size_bits: Size = 8_000
    checksum: Checksum = _AUTO

    kind = KIND_DATA


class InfoMsg(WireMessage, tag=2, name="info"):
    """Periodic INFO-set and parent-pointer exchange (also a heartbeat).

    ``stamp`` is the sender's clock at send time; ``echo_stamp`` /
    ``echo_hold`` return the destination's most recent stamp together
    with how long it was held before being echoed.  The receiver of the
    echo computes ``rtt = (now - echo_stamp) - echo_hold`` entirely in
    its own clock — the skew-immune NTP arrangement — which feeds the
    per-peer estimators of :mod:`repro.core.rtt`.  A negative stamp
    means "no sample" (e.g. pre-adaptive senders).
    """

    __slots__ = ()

    sender: HostId
    info: Seqnos
    parent: Optional[HostId]
    size_bits: Size = 1_000
    stamp: float = -1.0
    echo_stamp: float = -1.0
    echo_hold: float = 0.0
    uid: Uid = 0
    checksum: Checksum = _AUTO

    kind = KIND_CONTROL


class AttachRequest(WireMessage, tag=3, name="attach_req"):
    """Child asks to be included in the candidate parent's CHILDREN set."""

    __slots__ = ()

    child: HostId
    child_info: Seqnos
    #: monotone per-child counter so stale acks can be recognized
    attempt: int = 0
    size_bits: Size = 1_000
    uid: Uid = 0
    checksum: Checksum = _AUTO

    kind = KIND_CONTROL


class AttachAck(WireMessage, tag=4, name="attach_ack"):
    """Parent confirms the attachment (echoing the request's attempt)."""

    __slots__ = ()

    parent: HostId
    attempt: int
    parent_info: Seqnos
    parent_parent: Optional[HostId]
    size_bits: Size = 1_000
    uid: Uid = 0
    checksum: Checksum = _AUTO

    kind = KIND_CONTROL


class DetachNotice(WireMessage, tag=5, name="detach"):
    """Child tells its former parent to forget it."""

    __slots__ = ()

    child: HostId
    size_bits: Size = 1_000
    uid: Uid = 0
    checksum: Checksum = _AUTO

    kind = KIND_CONTROL


# -- RawPayload (tests and low-level benchmarks) ----------------------------

_RAW = struct.Struct(_HEADER + "IBBI")
_RAW_IN = struct.Struct("!IBBI")


def _encode_raw(table: HostTable, head: tuple, raw: RawPayload) -> bytes:
    kind = raw.kind.encode("utf-8")
    tag, blob = _pack_content(raw.content)
    return _RAW.pack(*head, raw.size_bits, len(kind), tag, len(blob)) \
        + kind + blob


def _decode_raw(table: HostTable, frame: bytes) -> RawPayload:
    size_bits, kind_length, tag, length = _RAW_IN.unpack_from(
        frame, _HEADER_SIZE)
    start = _HEADER_SIZE + _RAW_IN.size
    middle = start + kind_length
    if len(frame) != middle + length:
        raise FrameError("frame length does not match its field lengths")
    return RawPayload(content=_unpack_content(tag, frame[middle:]),
                      kind=frame[start:middle].decode("utf-8"),
                      size_bits=size_bits)


_ENCODERS[RawPayload] = (_TAG_RAW, _encode_raw)
_DECODERS[_TAG_RAW] = _decode_raw


def encode_frame(table: HostTable, src: HostId, stamped_at: float,
                 payload: object) -> bytes:
    """The datagram that carries ``payload`` from ``src``.

    Raises ``TypeError`` for a payload (or data content) type the wire
    does not carry, and ``ValueError`` for a host outside ``table`` or a
    field out of its encoded range — a sender-side bug, never a
    property of the traffic.
    """
    entry = _ENCODERS.get(type(payload))
    if entry is None:
        raise TypeError(
            f"no wire encoding for payload type {type(payload).__name__}")
    tag, encode = entry
    try:
        head = (WIRE_VERSION, tag, table.fingerprint, table.index[src],
                stamped_at)
        return encode(table, head, payload)
    except (KeyError, struct.error) as exc:
        raise ValueError(f"cannot encode {payload!r}: {exc}") from None


def decode_frame(table: HostTable,
                 frame: bytes) -> Tuple[HostId, float, object]:
    """``(src, stamped_at, payload)`` from one datagram.

    Raises :class:`FrameError` — and nothing else — for a datagram that
    is not exactly one well-formed frame built against ``table``:
    truncated, trailing bytes, another version or table, an unknown tag
    or host index, a malformed INFO set, a non-finite time, a
    non-positive sequence number, a zero uid or a bool byte other than
    0 or 1.
    """
    try:
        version, tag, fingerprint, src, stamped_at = _HEADER_S.unpack_from(
            frame)
        if version != WIRE_VERSION:
            raise FrameError(f"wire version {version}, expected "
                             f"{WIRE_VERSION}")
        if fingerprint != table.fingerprint:
            raise FrameError("frame was built against another host table")
        decode = _DECODERS.get(tag)
        if decode is None:
            raise FrameError(f"unknown payload tag {tag}")
        if not isfinite(stamped_at):
            raise FrameError("non-finite send stamp")
        return table.hosts[src], stamped_at, decode(table, frame)
    except FrameError:
        raise
    except (struct.error, ValueError, IndexError) as exc:
        # Truncation, an index past the table, bad UTF-8, a run state
        # SeqnoSet.from_runs rejects.
        raise FrameError(str(exc)) from None
