"""Structured event tracing.

Components emit :class:`TraceRecord` instances through the simulator's
tracer.  Records carry the virtual timestamp, a dotted ``kind`` (e.g.
``"host.deliver"``, ``"link.drop"``), the emitting component's name, and
free-form fields.  Tests and the analysis layer query the recorded
stream; subscribers can also react to records as they are emitted.

Retention is all or nothing: while ``enabled`` the tracer keeps every
record, otherwise none (the default keeps everything, which is what
unit and integration tests want; long benchmarks turn it off).  Only
subscribers select records by ``kind`` prefix.

Fast-path contract (see DESIGN.md "Tracer fast path"):

* when the tracer is fully inactive (``enabled`` is False and no
  subscribers are registered) :meth:`Tracer.emit` returns after a single
  attribute test and allocates *nothing*;
* when disabled but subscribers exist, a :class:`TraceRecord` is built
  only if at least one subscriber's prefix matches the kind — a miss
  allocates nothing;
* hot emit sites may additionally guard with the plain ``active``
  attribute (``if sim.trace.active: sim.trace.emit(...)``) to also skip
  building the keyword-argument dict.  ``active`` is maintained by the
  tracer (``enabled``, :meth:`Tracer.subscribe` and
  :meth:`Tracer.unsubscribe`); treat it as read-only.

For long chaos runs, :meth:`Tracer.retain_last` bounds retention to a
ring buffer of the most recent N records instead of disabling tracing
outright.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator


class TraceRecord:
    """One traced occurrence inside a simulation.

    A plain ``__slots__`` class (not a dataclass): record construction
    sits on the simulator's hot path, and slot assignment is several
    times cheaper than a frozen dataclass's ``object.__setattr__``
    dance.  Treat instances as immutable.
    """

    __slots__ = ("time", "kind", "source", "fields")

    def __init__(self, time: float, kind: str, source: str,
                 fields: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.kind = kind
        self.source = source
        self.fields: Dict[str, Any] = fields if fields is not None else {}

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """The value of field ``key``, or ``default`` when absent."""
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.source == other.source and self.fields == other.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
                f"source={self.source!r}, fields={self.fields!r})")


Subscriber = Callable[[TraceRecord], None]


class Tracer:
    """Collects :class:`TraceRecord` objects and notifies subscribers."""

    __slots__ = ("_sim", "_enabled", "_records", "_subscribers", "active")

    def __init__(self, sim: "Simulator", enabled: bool = True,
                 retain_last: Optional[int] = None) -> None:
        self._sim = sim
        self._enabled = enabled
        self._records: Union[List[TraceRecord], "deque[TraceRecord]"]
        self._records = deque(maxlen=retain_last) if retain_last else []
        self._subscribers: List[Tuple[str, Subscriber]] = []
        #: fast-path guard, kept equal to ``enabled or bool(subscribers)``
        self.active = bool(enabled)

    # -- configuration --------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether records are retained (subscribers fire regardless)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self.active = self._enabled or bool(self._subscribers)

    def retain_last(self, limit: Optional[int]) -> None:
        """Bound retention to a ring buffer of the newest ``limit`` records.

        Existing records are preserved (the oldest are dropped if they
        exceed the new bound); ``None`` restores unbounded retention.
        """
        if limit is None:
            self._records = list(self._records)
        else:
            if limit <= 0:
                raise ValueError(f"retention limit must be positive, got {limit}")
            self._records = deque(self._records, maxlen=limit)

    @property
    def retention(self) -> Optional[int]:
        """The ring-buffer bound, or None when retention is unbounded."""
        if isinstance(self._records, deque):
            return self._records.maxlen
        return None

    # -- emission ------------------------------------------------------

    def emit(self, kind: str, source: str, /, **fields: Any) -> None:
        """Record an occurrence of ``kind`` from ``source``.

        Subscribers matching the kind prefix are always notified;
        records are retained only while ``enabled`` is True.
        """
        if not self.active:
            return
        if self._enabled:
            record = TraceRecord(self._sim.now, kind, source, fields)
            self._records.append(record)
            for prefix, subscriber in self._subscribers:
                if kind.startswith(prefix):
                    subscriber(record)
            return
        # Disabled but subscribed: allocate the record only if some
        # subscriber actually wants this kind.
        record = None
        for prefix, subscriber in self._subscribers:
            if kind.startswith(prefix):
                if record is None:
                    record = TraceRecord(self._sim.now, kind, source, fields)
                subscriber(record)

    # -- subscription ---------------------------------------------------

    def subscribe(self, prefix: str, subscriber: Subscriber) -> None:
        """Call ``subscriber`` for every record whose kind starts with ``prefix``."""
        self._subscribers.append((prefix, subscriber))
        self.active = True

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Stop calling ``subscriber``, under every prefix it subscribed to.

        A subscriber that is not registered is ignored.  The last one to
        leave returns ``active`` to ``enabled``, so a disabled tracer is
        back on its zero-allocation fast path.
        """
        # Rebind rather than mutate: an emit may be iterating the list.
        self._subscribers = [
            (prefix, registered)
            for prefix, registered in self._subscribers
            if registered != subscriber
        ]
        self.active = self._enabled or bool(self._subscribers)

    # -- querying -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        since: float = float("-inf"),
        **field_filters: Any,
    ) -> List[TraceRecord]:
        """Return records filtered by kind prefix, source, time, and fields."""
        out = []
        for record in self._records:
            if kind is not None and not record.kind.startswith(kind):
                continue
            if source is not None and record.source != source:
                continue
            if record.time < since:
                continue
            if any(record.get(key) != value for key, value in field_filters.items()):
                continue
            out.append(record)
        return out

    def count(self, kind: Optional[str] = None, **field_filters: Any) -> int:
        """Number of records matching the given filters."""
        return len(self.records(kind=kind, **field_filters))

    def last(self, kind: str) -> Optional[TraceRecord]:
        """Most recent record with the given kind prefix, if any."""
        for record in reversed(self._records):
            if record.kind.startswith(kind):
                return record
        return None

    def clear(self) -> None:
        """Drop all retained records (subscribers are kept)."""
        self._records.clear()


def summarize_kinds(records: Iterable[TraceRecord]) -> Dict[str, int]:
    """Histogram of record kinds — handy in test failure messages."""
    out: Dict[str, int] = {}
    for record in records:
        out[record.kind] = out.get(record.kind, 0) + 1
    return out
