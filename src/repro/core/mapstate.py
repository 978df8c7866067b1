"""MAP and parent-pointer state (Section 4.2).

``MAP_i[j]`` is host *i*'s view of ``INFO_j``; ``p_i[j]`` is *i*'s view
of *j*'s parent pointer.  Both are updated from periodic
:class:`repro.core.wire.InfoMsg` exchanges and opportunistically from
data traffic (receiving data message *n* from *j* proves *j* has *n*).

``note_sent`` implements optimistic marking: after sending seq *n*
toward *j*, *i* assumes *j* will have it, which suppresses immediate
re-sends; if the message is lost, *j*'s next authoritative InfoMsg
(which *replaces* the view) snaps the view back and the gap is
retried.  Views are therefore not monotone — a reordered stale
snapshot can transiently regress one — and no protocol decision relies
on their monotonicity.

Views are copy-on-write: ``apply_info`` adopts the payload's frozen
snapshot as the view itself, and only the first mark after it
(``note_sent``, ``note_has`` or ``merge``) copies it into a private
mutable set.  A view that is never marked — a sibling's, a
non-neighbour's — is never copied.  Reads never create state: an
unknown host's view is one shared empty snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..net import HostId
from .seqnoset import FrozenSeqnoSet, SeqnoSet

#: the view of a host nothing is known about (shared, immutable)
_EMPTY = SeqnoSet().snapshot()


class MapState:
    """Host *i*'s MAP array and parent-pointer array."""

    def __init__(self, me: HostId, own_info: SeqnoSet) -> None:
        self.me = me
        self._own_info = own_info  # alias: MAP_i[i] is INFO_i itself
        #: a FrozenSeqnoSet until the first mark, then a private copy
        self._views: Dict[HostId, SeqnoSet] = {}
        #: hosts with evidence other than an INFO snapshot (data, attach)
        self._heard: Set[HostId] = set()
        self._parents: Dict[HostId, Optional[HostId]] = {}
        #: contiguous prefix of the last *authoritative* snapshot per host;
        #: pruning decisions may only use this, never optimistic marks
        self._ack_prefix: Dict[HostId, int] = {}
        #: previous authoritative snapshot per host (for persistence checks)
        self._prev_auth: Dict[HostId, FrozenSeqnoSet] = {}
        #: latest authoritative snapshot per host (unpolluted by marks)
        self._last_auth: Dict[HostId, FrozenSeqnoSet] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def info_of(self, j: HostId) -> SeqnoSet:
        """MAP_i[j]; the empty set when nothing is known yet.

        Read-only: the result may be a shared snapshot, and asking
        about a host records nothing about it.
        """
        if j == self.me:
            return self._own_info
        return self._views.get(j, _EMPTY)

    def authoritative_prefix(self, j: HostId) -> int:
        """Largest n such that an InfoMsg from j *proved* it has 1..n.

        0 when j has never been heard from.  Unlike :meth:`info_of`,
        this is immune to optimistic ``note_sent`` marks, so it is safe
        to base pruning (discarding stored messages) on it.
        """
        if j == self.me:
            return self._own_info.contiguous_prefix()
        return self._ack_prefix.get(j, 0)

    def persistent_hole(self, j: HostId, seq: int) -> bool:
        """Was ``seq`` a *hole* of j's in the last TWO authoritative
        snapshots?  (A hole: missing although j's maximum exceeds it.)

        This is the eligibility test for **non-neighbor** gap filling.
        Transient holes — in flight, or being repaired by j's parent —
        appear in at most one snapshot and are filtered out; without
        this, every holder in the system herd-fills the same hole
        against views that stay stale for a full exchange period.
        Long-lived holes (the paper's Figure 4.1 situation) persist
        across snapshots and pass.
        """
        last = self._last_auth.get(j)
        prev = self._prev_auth.get(j)
        if last is None or prev is None:
            return False
        return (seq not in last and seq < last.max_seqno
                and seq not in prev and seq < prev.max_seqno)

    def parent_of(self, j: HostId) -> Optional[HostId]:
        """p_i[j]: i's view of j's parent (None when unknown/parentless)."""
        return self._parents.get(j)

    def known_hosts(self) -> Set[HostId]:
        """Hosts i has received evidence about, and i itself.

        Evidence is an INFO snapshot (:meth:`apply_info`), a data
        message (:meth:`note_has`) or an attach request's INFO
        (:meth:`merge`); an optimistic :meth:`note_sent` mark is not.
        """
        return self._heard.union(self._last_auth, (self.me,))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply_info(self, j: HostId, info: SeqnoSet, parent: Optional[HostId]) -> None:
        """Apply a full INFO snapshot + parent pointer from j.

        The snapshot *replaces* the view: INFO messages are
        authoritative, and replacement is what corrects optimistic
        ``note_sent`` marks when a fill was actually lost.  (A reordered
        stale snapshot can transiently regress the view; the cost is at
        worst a duplicate gap fill, bounded by the suppression window.)

        ``info.snapshot()`` — the payload's own frozen set, so no copy —
        becomes both the view and the authoritative snapshot; the first
        mark after this copies the view (:meth:`_marked_view`).
        """
        if j == self.me:
            return
        snap = info.snapshot()
        self._views[j] = snap
        self._parents[j] = parent
        prefix = snap.contiguous_prefix()
        if prefix > self._ack_prefix.get(j, 0):
            self._ack_prefix[j] = prefix
        last = self._last_auth.get(j)
        if last is not None:
            self._prev_auth[j] = last
        self._last_auth[j] = snap

    def _marked_view(self, j: HostId) -> SeqnoSet:
        """MAP_i[j] as a mutable set of its own (copy on first write)."""
        view = self._views.get(j)
        if view is None:
            view = self._views[j] = SeqnoSet()
        elif type(view) is FrozenSeqnoSet:
            view = self._views[j] = view.copy()
        return view

    def note_has(self, j: HostId, seq: int) -> None:
        """Record first-hand evidence that j has message ``seq``."""
        if j == self.me:
            return
        self._marked_view(j).add(seq)
        self._heard.add(j)

    def note_sent(self, j: HostId, seq: int) -> None:
        """Optimistically assume message ``seq`` just sent to j will arrive."""
        if j != self.me:
            self._marked_view(j).add(seq)

    def merge(self, j: HostId, info: SeqnoSet) -> None:
        """Union first-hand evidence ``info`` (e.g. an AttachRequest's
        INFO) into MAP_i[j]; never writes to ``info`` or a snapshot."""
        if j == self.me:
            return
        self._marked_view(j).update(info)
        self._heard.add(j)

    def set_parent_view(self, j: HostId, parent: Optional[HostId]) -> None:
        """Update only the parent pointer view for j."""
        if j != self.me:
            self._parents[j] = parent

    # ------------------------------------------------------------------
    # Derived queries used by the attachment procedure
    # ------------------------------------------------------------------

    def ancestors_of_me(self, my_parent: Optional[HostId]) -> Tuple[List[HostId], bool]:
        """Walk parent pointers from me: ANC_i (Section 4.2, case III).

        Uses i's own parent for the first step and the ``p_i[]`` views
        beyond it.  Returns ``(chain, cycle_through_me)`` where
        ``chain`` lists ancestors in walk order (duplicates removed) and
        ``cycle_through_me`` is True when the walk returns to *i* —
        the intra-cluster cycle condition ``i ∈ ANC_i``.
        """
        chain: List[HostId] = []
        seen: Set[HostId] = set()
        current = my_parent
        while current is not None:
            if current == self.me:
                return chain, True
            if current in seen:
                return chain, False  # a cycle not through me
            chain.append(current)
            seen.add(current)
            current = self._parents.get(current)
        return chain, False

    def cycle_members(self, my_parent: Optional[HostId]) -> List[HostId]:
        """Hosts on the cycle through me (me included), or [] if none."""
        chain, through_me = self.ancestors_of_me(my_parent)
        if not through_me:
            return []
        return [self.me] + chain
