"""Compact sets of message sequence numbers (the paper's INFO sets).

Every host tracks the sequence numbers of all broadcast messages it has
received (``INFO_i``), and its view of every other host's set
(``MAP_i[j]``).  Since received messages are mostly contiguous runs,
:class:`SeqnoSet` stores them as sorted, disjoint, inclusive integer
runs — O(#gaps) memory instead of O(#messages) — and *operates* on
runs too: no operation walks members, so no per-message cost grows
with how many messages a deployment has handled.

The class also implements the paper's Section 6 optimization: a set can
be *pruned* of sequence numbers ``1..n`` once it is known that all hosts
have received them; the pruned prefix is remembered in ``floor`` so
membership and gap queries stay exact.  Run-wise operations treat the
floor as the run ``[1, floor]``.

Complexity, with r the number of runs (≤ 5 on every benchmark workload,
while members reach thousands):

====================================================  ==================
``add`` of ``max + 1`` / ``max_seqno`` / ``floor`` /  O(1)
``contiguous_prefix`` / ``bool``
``in``                                                O(log r)
``add`` / ``add_range`` / ``truncate_above`` /        O(log r) search +
``prune_through``                                     O(r) list splice
``copy`` / ``snapshot`` / ``len`` / ``==`` /          O(r)
``ranges`` / ``repr``
``difference_runs`` / ``issuperset``                  O(r + r_other)
``update``                                            O(r_other · log r)
                                                      + O(r) per splice
``iter_difference`` / ``difference`` /                O(r) + the members
``missing_below`` / ``gaps`` / ``iter``               actually produced
====================================================  ==================

:meth:`SeqnoSet.snapshot` seals a set into a :class:`FrozenSeqnoSet`:
an immutable copy that also holds its checksum canonical.  INFO
payloads carry snapshots and MAP views adopt them, so a set that did
not change between two sends is copied once, not once per message.
The live set caches its last snapshot and re-validates it on each call
by comparing floor and run lists — O(r), and correct whatever mutated
the set, because nothing has to remember to invalidate the cache.

The paper's partial order on INFO sets (Section 4.2) is provided by
:func:`info_less` (``A < B`` iff ``max(A) < max(B)``) and
:func:`info_equiv` (equal maxima).  The maximum of an empty set is
defined as 0; the source numbers messages from 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from typing import (Any, Iterable, Iterator, List, NoReturn, Optional,
                    Tuple, Type, TypeVar)

_S = TypeVar("_S", bound="SeqnoSet")


class SeqnoSet:
    """A set of positive integers stored as sorted disjoint runs."""

    __slots__ = ("_los", "_his", "_floor", "_snap")

    # Run k is los[k]..his[k] inclusive; runs are sorted, disjoint,
    # non-adjacent and lie above the floor.
    _los: List[int]
    _his: List[int]
    _floor: int  # all of 1..floor are members (pruned prefix)
    #: the last snapshot() — valid while its runs equal ours
    _snap: Optional["FrozenSeqnoSet"]

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._set_runs(0, [], [])
        for item in items:
            self.add(item)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def range(cls, lo: int, hi: int) -> "SeqnoSet":
        """The contiguous set {lo, ..., hi} (inclusive)."""
        out = cls()
        out.add_range(lo, hi)
        return out

    def copy(self) -> "SeqnoSet":
        """An independent copy."""
        out = SeqnoSet.__new__(SeqnoSet)
        out._los = self._los[:]
        out._his = self._his[:]
        out._floor = self._floor
        out._snap = None
        return out

    def snapshot(self) -> "FrozenSeqnoSet":
        """An immutable copy: the same object while this set is unchanged.

        The cached snapshot is re-validated against the live runs on
        every call (O(r)), so no mutator has to invalidate it.
        """
        snap = self._snap
        if (snap is None or snap._floor != self._floor
                or snap._his != self._his or snap._los != self._los):
            snap = self._snap = FrozenSeqnoSet.from_runs(
                self._floor, self._los[:], self._his[:])
        return snap

    def runs(self) -> Tuple[int, List[int], List[int]]:
        """``(floor, los, his)``: the stored state, for the frame codec.

        Aliases the live lists — read-only.
        """
        return self._floor, self._los, self._his

    @classmethod
    def from_runs(cls: Type[_S], floor: int, los: List[int],
                  his: List[int]) -> _S:
        """The set with pruned prefix ``floor`` and runs ``los[k]..his[k]``.

        Takes ownership of the lists.  This is how a set arrives off the
        wire, so the class invariant is checked, not assumed: the runs
        must be sorted, disjoint, non-adjacent and above the floor
        (``ValueError`` otherwise).  O(r).
        """
        if floor < 0 or len(los) != len(his):
            raise ValueError("malformed run state")
        limit = floor  # the next run must start above this
        for lo, hi in zip(los, his):
            if lo <= limit or hi < lo:
                raise ValueError("runs are not sorted, disjoint and "
                                 "above the floor")
            limit = hi + 1
        out = cls.__new__(cls)
        out._set_runs(floor, los, his)
        return out

    def _set_runs(self, floor: int, los: List[int], his: List[int]) -> None:
        self._floor, self._los, self._his, self._snap = floor, los, his, None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, seq: int) -> bool:
        """Insert ``seq``; returns True when it was not already present."""
        his = self._his
        if his and seq == his[-1] + 1:  # the next message in sequence
            his[-1] = seq
            return True
        return self.add_range(seq, seq)

    def add_range(self, lo: int, hi: int) -> bool:
        """Insert all of {lo..hi}; returns True if anything was new."""
        if lo < 1:
            raise ValueError(f"sequence numbers are positive, got {lo}")
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if hi <= self._floor:
            return False
        lo = max(lo, self._floor + 1)
        los, his = self._los, self._his
        # Runs left..right-1 overlap or are adjacent to [lo, hi].
        left = bisect_left(his, lo - 1)
        right = bisect_right(los, hi + 1)
        if left == right:
            los.insert(left, lo)
            his.insert(left, hi)
            return True
        new_lo = min(lo, los[left])
        new_hi = max(hi, his[right - 1])
        if right - left == 1 and new_lo == los[left] and new_hi == his[left]:
            return False  # one run already covers it
        # Two merged runs were non-adjacent, so a hole between them was new.
        los[left:right] = [new_lo]
        his[left:right] = [new_hi]
        return True

    def update(self, other: "SeqnoSet") -> bool:
        """Union-in ``other``; returns True if anything was new."""
        any_new = False
        if other._floor > self._floor:
            any_new = self.add_range(1, other._floor)
        for lo, hi in zip(other._los, other._his):
            any_new |= self.add_range(lo, hi)
        return any_new

    def truncate_above(self, n: int) -> None:
        """Remove every member greater than ``n`` (host-crash modeling).

        The pruned prefix is implicit storage and cannot be truncated:
        ``n`` below ``floor`` raises ``ValueError``.
        """
        if n < self._floor:
            raise ValueError(
                f"cannot truncate above {n}: pruned prefix reaches {self._floor}")
        keep = bisect_right(self._los, n)
        del self._los[keep:]
        del self._his[keep:]
        if keep and self._his[-1] > n:
            self._his[-1] = n

    def prune_through(self, n: int) -> None:
        """Forget explicit storage for 1..n (they remain members).

        Only legal when 1..n are all present — pruning must not change
        the set's membership, so a gap below n raises ``ValueError``.
        """
        if n <= self._floor:
            return
        if self.contiguous_prefix() < n:
            raise ValueError(f"cannot prune through {n}: set has gaps below it")
        # 1..n present and n above the floor: the first run holds n.
        self._floor = n
        if self._his[0] == n:
            del self._los[0]
            del self._his[0]
        else:
            self._los[0] = n + 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def floor(self) -> int:
        """Largest n such that 1..n is stored implicitly (0 if none)."""
        return self._floor

    def __contains__(self, seq: int) -> bool:
        if seq <= self._floor:
            return seq > 0
        idx = bisect_right(self._los, seq) - 1
        return idx >= 0 and self._his[idx] >= seq

    def __len__(self) -> int:
        return self._floor + sum(self._his) - sum(self._los) + len(self._los)

    def __bool__(self) -> bool:
        return self._floor > 0 or bool(self._los)

    @property
    def max_seqno(self) -> int:
        """The paper's max(INFO); 0 for the empty set."""
        if self._his:
            return self._his[-1]
        return self._floor

    def __iter__(self) -> Iterator[int]:
        """All members, ascending (tests and diagnostics: O(members))."""
        return chain.from_iterable(
            range(lo, hi + 1) for lo, hi in zip(*self._runs()))

    def contiguous_prefix(self) -> int:
        """Largest n such that all of 1..n are members (0 if 1 is absent)."""
        if self._los and self._los[0] == self._floor + 1:
            return self._his[0]
        return self._floor

    def missing_below(self, limit: int) -> List[int]:
        """All absent sequence numbers in [1, limit) — the set's *gaps*."""
        missing: List[int] = []
        cursor = self._floor + 1
        for lo, hi in zip(self._los, self._his):
            if cursor >= limit:
                break
            missing.extend(range(cursor, min(lo, limit)))
            cursor = hi + 1
        missing.extend(range(cursor, limit))
        return missing

    def gaps(self) -> List[int]:
        """Absent sequence numbers below this set's own maximum."""
        return self.missing_below(self.max_seqno)

    def _runs(self) -> Tuple[List[int], List[int]]:
        """``(los, his)`` with the pruned prefix folded in as ``[1, floor]``.

        The canonical form of the membership: two sets are equal iff
        their ``_runs()`` are.  May alias the live lists — read-only.
        """
        los, his, floor = self._los, self._his, self._floor
        if not floor:
            return los, his
        if los and los[0] == floor + 1:
            return [1] + los[1:], his
        return [1] + los, [floor] + his

    def difference_runs(self, other: "SeqnoSet") -> List[Tuple[int, int]]:
        """The members of self not in ``other``, as inclusive runs."""
        blos, bhis = other._runs()
        out: List[Tuple[int, int]] = []
        j, nb = 0, len(blos)
        for lo, hi in zip(*self._runs()):
            while j < nb and bhis[j] < lo:
                j += 1
            while j < nb and blos[j] <= hi:
                if blos[j] > lo:
                    out.append((lo, blos[j] - 1))
                lo = bhis[j] + 1
                if lo > hi:
                    break  # this run of other may reach into our next one
                j += 1
            if lo <= hi:
                out.append((lo, hi))
        return out

    def iter_difference(self, other: "SeqnoSet") -> Iterator[int]:
        """Members of self not in ``other``, ascending, expanded lazily.

        The runs are fixed when this is called, so the caller may mutate
        either set while consuming the iterator.
        """
        runs = self.difference_runs(other)
        return chain.from_iterable(range(lo, hi + 1) for lo, hi in runs)

    def difference(self, other: "SeqnoSet", limit: int = 0) -> List[int]:
        """Members of self that are not in ``other`` (ascending).

        With ``limit > 0``, at most that many are returned — used to
        batch gap-filling traffic.
        """
        return list(islice(self.iter_difference(other), limit or None))

    def issuperset(self, other: "SeqnoSet") -> bool:
        """True when every member of ``other`` is in self."""
        return not other.difference_runs(self)

    def ranges(self) -> List[Tuple[int, int]]:
        """The explicit ranges (diagnostics; excludes the pruned prefix)."""
        return list(zip(self._los, self._his))

    # ------------------------------------------------------------------
    # Equality / representation
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeqnoSet):
            return NotImplemented
        # Same membership, regardless of internal floor/runs split.
        return self._runs() == other._runs()

    def __hash__(self) -> int:  # pragma: no cover - sets are mutable
        raise TypeError("SeqnoSet is unhashable")

    def __repr__(self) -> str:
        parts = []
        if self._floor:
            parts.append(f"1..{self._floor}*")
        parts.extend(f"{lo}..{hi}" if lo != hi else f"{lo}"
                     for lo, hi in zip(self._los, self._his))
        return f"SeqnoSet({', '.join(parts)})"


class FrozenSeqnoSet(SeqnoSet):
    """An immutable :class:`SeqnoSet`: what INFO payloads carry.

    Every mutator raises ``TypeError``; :meth:`copy` returns a mutable
    :class:`SeqnoSet`.  ``canonical`` is ``(floor, ((lo, hi), ...))``,
    the set's part of a payload checksum, computed once.  Built by
    :meth:`SeqnoSet.snapshot` or :meth:`from_runs` (the frame decoder).
    """

    __slots__ = ("canonical",)

    canonical: Tuple[int, Tuple[Tuple[int, int], ...]]

    def _set_runs(self, floor: int, los: List[int], his: List[int]) -> None:
        super()._set_runs(floor, los, his)
        self.canonical = (floor, tuple(zip(los, his)))

    def snapshot(self) -> "FrozenSeqnoSet":
        return self

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("a FrozenSeqnoSet is immutable; mutate a copy()")

    add = add_range = update = truncate_above = prune_through = _immutable


def info_less(a: SeqnoSet, b: SeqnoSet) -> bool:
    """The paper's partial order: A < B iff max(A) < max(B)."""
    return a.max_seqno < b.max_seqno


def info_equiv(a: SeqnoSet, b: SeqnoSet) -> bool:
    """The paper's equivalence: A ≃ B iff max(A) = max(B)."""
    return a.max_seqno == b.max_seqno


def info_leq(a: SeqnoSet, b: SeqnoSet) -> bool:
    """A < B or A ≃ B (used by attachment case III)."""
    return a.max_seqno <= b.max_seqno
