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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..net import HostId
from .seqnoset import SeqnoSet


class MapState:
    """Host *i*'s MAP array and parent-pointer array."""

    def __init__(self, me: HostId, own_info: SeqnoSet) -> None:
        self.me = me
        self._own_info = own_info  # alias: MAP_i[i] is INFO_i itself
        self._views: Dict[HostId, SeqnoSet] = {}
        self._parents: Dict[HostId, Optional[HostId]] = {}
        #: contiguous prefix of the last *authoritative* snapshot per host;
        #: pruning decisions may only use this, never optimistic marks
        self._ack_prefix: Dict[HostId, int] = {}
        #: previous authoritative snapshot per host (for persistence checks)
        self._prev_auth: Dict[HostId, SeqnoSet] = {}
        #: latest authoritative snapshot per host (unpolluted by marks)
        self._last_auth: Dict[HostId, SeqnoSet] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def info_of(self, j: HostId) -> SeqnoSet:
        """MAP_i[j]; the empty set when nothing is known yet."""
        if j == self.me:
            return self._own_info
        view = self._views.get(j)
        if view is None:
            view = SeqnoSet()
            self._views[j] = view
        return view

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
        """Hosts i has views for (not necessarily all participants)."""
        return set(self._views) | {self.me}

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

        ``info`` is kept by reference as the authoritative snapshot, so
        the caller must not mutate it afterwards; payload INFO sets are
        immutable snapshots by contract (``wire._snapshot``).
        """
        if j == self.me:
            return
        self._views[j] = info.copy()  # the view takes optimistic marks
        self._parents[j] = parent
        self._ack_prefix[j] = max(self._ack_prefix.get(j, 0), info.contiguous_prefix())
        if j in self._last_auth:
            self._prev_auth[j] = self._last_auth[j]
        self._last_auth[j] = info

    def note_has(self, j: HostId, seq: int) -> None:
        """Record first-hand evidence that j has message ``seq``."""
        if j == self.me:
            return
        self.info_of(j).add(seq)

    def note_sent(self, j: HostId, seq: int) -> None:
        """Optimistically assume message ``seq`` just sent to j will arrive."""
        if j != self.me:
            self.info_of(j).add(seq)

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
