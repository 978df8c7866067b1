"""Structured event tracing.

Components emit occurrences through the simulator's tracer.  Each
carries the virtual timestamp, a dotted ``kind`` (e.g.
``"host.deliver"``, ``"link.drop"``), the emitting component's name, and
free-form fields.  Tests and the analysis layer query the recorded
stream as :class:`TraceRecord` objects; subscribers can also react to
records as they are emitted.

Retention is all or nothing: while ``enabled`` the tracer keeps every
record, otherwise none (the default keeps everything, which is what
unit and integration tests want; long benchmarks turn it off).  Only
subscribers select records by ``kind`` prefix.

A retained record is one flat row, ``(time, kind, source, keys,
*values)``, where ``keys`` is the tuple of field names shared by every
row with that field layout.  A row of strings, numbers and bools is
untracked by the cyclic collector after a collection or two, and
costs ``sys.getsizeof`` of a ``4 + len(fields)`` tuple: 96 bytes for
the three-field ``net.host_send`` on 64-bit CPython 3.11, against 248
for a record object plus its own field dict.  That, plus the field
values, is the tracer's memory ceiling when on; its time ceiling is
the bench's ``sim.trace.emit_on_ns``, about 1.0 µs per one-field emit
on a 2-core VM.  An emit that repeats its kind's previous field names
in another order is stored in the previous order.

:class:`TraceRecord` is the read-side view of a row: it is built only
when something reads the trace (iteration, :meth:`Tracer.records`,
:meth:`Tracer.last`) or, at emit time, when a subscriber's prefix
matches.  The query methods filter on a row's kind, source and time
before they build any view.  A view's ``fields`` is its own dict, so
editing it leaves the trace as it was.

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

from collections import Counter, deque
from operator import itemgetter
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
    """One traced occurrence inside a simulation, as a reader sees it.

    A plain ``__slots__`` view over a retained row (or over one emit,
    for a subscriber).  Treat instances as immutable.
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

#: ``(time, kind, source, keys, *values)``
Row = Tuple[Any, ...]
#: the shared field names of a row and the getter of its values from
#: an emit's keyword dict, in that order
Layout = Tuple[Tuple[str, ...], Callable[[Dict[str, Any]], Tuple[Any, ...]]]


def _layout(keys: Tuple[str, ...]) -> Layout:
    if not keys:
        return keys, lambda fields: ()
    if len(keys) == 1:
        key, = keys
        return keys, lambda fields: (fields[key],)
    return keys, itemgetter(*keys)  # a tuple, for two names or more


def _view(row: Row) -> TraceRecord:
    return TraceRecord(row[0], row[1], row[2], dict(zip(row[3], row[4:])))


def _field(row: Row, key: str) -> Any:
    keys = row[3]
    return row[4 + keys.index(key)] if key in keys else None


class Tracer:
    """Retains emitted occurrences as rows and notifies subscribers."""

    __slots__ = ("_sim", "_enabled", "_rows", "_subscribers", "active",
                 "_layouts", "_kind_layouts")

    def __init__(self, sim: "Simulator", enabled: bool = True,
                 retain_last: Optional[int] = None) -> None:
        self._sim = sim
        self._enabled = enabled
        self._rows: Union[List[Row], "deque[Row]"]
        self._rows = deque(maxlen=retain_last) if retain_last else []
        self._subscribers: List[Tuple[str, Subscriber]] = []
        #: one layout per tuple of field names, shared by its rows
        self._layouts: Dict[Tuple[str, ...], Layout] = {}
        #: the layout each kind was last emitted with
        self._kind_layouts: Dict[str, Layout] = {}
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
            self._rows = list(self._rows)
        else:
            if limit <= 0:
                raise ValueError(f"retention limit must be positive, got {limit}")
            self._rows = deque(self._rows, maxlen=limit)

    @property
    def retention(self) -> Optional[int]:
        """The ring-buffer bound, or None when retention is unbounded."""
        if isinstance(self._rows, deque):
            return self._rows.maxlen
        return None

    # -- emission ------------------------------------------------------

    def emit(self, kind: str, source: str, /, **fields: Any) -> None:
        """Record an occurrence of ``kind`` from ``source``.

        Subscribers matching the kind prefix are always notified;
        records are retained only while ``enabled`` is True.
        """
        if not self.active:
            return
        record = None
        if self._enabled:
            now = self._sim.now
            try:
                keys, values = self._kind_layouts[kind]
                if len(keys) != len(fields):
                    raise KeyError(kind)
                row = (now, kind, source, keys) + values(fields)
            except KeyError:  # a new kind, or other names than its last emit
                keys, values = self._kind_layouts[kind] = self._intern(
                    tuple(fields))
                row = (now, kind, source, keys) + values(fields)
            self._rows.append(row)
            for prefix, subscriber in self._subscribers:
                if kind.startswith(prefix):
                    if record is None:
                        record = TraceRecord(now, kind, source, fields)
                    subscriber(record)
            return
        # Disabled but subscribed: allocate the record only if some
        # subscriber actually wants this kind.
        for prefix, subscriber in self._subscribers:
            if kind.startswith(prefix):
                if record is None:
                    record = TraceRecord(self._sim.now, kind, source, fields)
                subscriber(record)

    def _intern(self, keys: Tuple[str, ...]) -> Layout:
        layout = self._layouts.get(keys)
        if layout is None:
            layout = self._layouts[keys] = _layout(keys)
        return layout

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
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_view, self._rows)

    def _select(
        self,
        kind: Union[str, Tuple[str, ...], None],
        source: Optional[str],
        since: float,
        field_filters: Dict[str, Any],
    ) -> Iterator[Row]:
        for row in self._rows:
            if kind is not None and not row[1].startswith(kind):
                continue
            if source is not None and row[2] != source:
                continue
            if row[0] < since:
                continue
            if any(_field(row, key) != value
                   for key, value in field_filters.items()):
                continue
            yield row

    def records(
        self,
        kind: Union[str, Tuple[str, ...], None] = None,
        source: Optional[str] = None,
        since: float = float("-inf"),
        **field_filters: Any,
    ) -> List[TraceRecord]:
        """Return records filtered by kind prefix (or a tuple of
        prefixes), source, time, and fields."""
        return [_view(row) for row in
                self._select(kind, source, since, field_filters)]

    def count(self, kind: Optional[str] = None, **field_filters: Any) -> int:
        """Number of records matching the given filters."""
        return sum(1 for _ in self._select(kind, None, float("-inf"),
                                           field_filters))

    def last(self, kind: str) -> Optional[TraceRecord]:
        """Most recent record with the given kind prefix, if any."""
        for row in reversed(self._rows):
            if row[1].startswith(kind):
                return _view(row)
        return None

    def clear(self) -> None:
        """Drop all retained records (subscribers are kept)."""
        self._rows.clear()


def summarize_kinds(records: Iterable[TraceRecord]) -> Dict[str, int]:
    """Histogram of record kinds — handy in test failure messages.

    A :class:`Tracer` is counted from its rows, building no record.
    """
    if isinstance(records, Tracer):
        return dict(Counter(row[1] for row in records._rows))
    return dict(Counter(record.kind for record in records))
