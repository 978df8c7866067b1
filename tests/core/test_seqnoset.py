"""Unit tests for SeqnoSet (the INFO-set data structure)."""

import pytest

from repro.core.seqnoset import (
    FrozenSeqnoSet,
    SeqnoSet,
    info_equiv,
    info_leq,
    info_less,
)


def test_empty_set_properties():
    s = SeqnoSet()
    assert len(s) == 0
    assert not s
    assert s.max_seqno == 0
    assert 1 not in s
    assert list(s) == []
    assert s.gaps() == []


def test_add_and_contains():
    s = SeqnoSet()
    assert s.add(3) is True
    assert s.add(3) is False
    assert 3 in s
    assert 2 not in s
    assert 0 not in s
    assert -1 not in s


def test_constructor_from_iterable():
    s = SeqnoSet([5, 1, 3, 1])
    assert list(s) == [1, 3, 5]
    assert len(s) == 3


def test_ranges_coalesce():
    s = SeqnoSet([1, 2, 3, 5, 6, 10])
    assert s.ranges() == [(1, 3), (5, 6), (10, 10)]
    s.add(4)
    assert s.ranges() == [(1, 6), (10, 10)]
    s.add_range(7, 9)
    assert s.ranges() == [(1, 10)]


def test_add_range_overlapping_variants():
    s = SeqnoSet.range(5, 10)
    assert s.add_range(1, 4) is True      # adjacent left
    assert s.ranges() == [(1, 10)]
    assert s.add_range(2, 8) is False     # fully inside
    assert s.add_range(8, 15) is True     # overlapping right
    assert s.ranges() == [(1, 15)]


def test_add_range_spanning_multiple_ranges():
    s = SeqnoSet([1, 5, 9])
    assert s.add_range(2, 10) is True
    assert s.ranges() == [(1, 10)]


def test_add_range_validates():
    s = SeqnoSet()
    with pytest.raises(ValueError):
        s.add(0)
    with pytest.raises(ValueError):
        s.add_range(3, 2)


def test_max_seqno_tracks_largest():
    s = SeqnoSet([2, 7, 4])
    assert s.max_seqno == 7


def test_missing_below_and_gaps():
    s = SeqnoSet([1, 2, 5, 8])
    assert s.missing_below(9) == [3, 4, 6, 7]
    assert s.missing_below(5) == [3, 4]
    assert s.gaps() == [3, 4, 6, 7]
    assert SeqnoSet([1, 2, 3]).gaps() == []
    assert SeqnoSet().missing_below(4) == [1, 2, 3]


def test_update_unions():
    a = SeqnoSet([1, 2])
    b = SeqnoSet([2, 5])
    assert a.update(b) is True
    assert list(a) == [1, 2, 5]
    assert a.update(b) is False


def test_difference_with_limit():
    a = SeqnoSet([1, 2, 3, 4, 5])
    b = SeqnoSet([2, 4])
    assert a.difference(b) == [1, 3, 5]
    assert a.difference(b, limit=2) == [1, 3]
    assert b.difference(a) == []


def test_issuperset():
    a = SeqnoSet([1, 2, 3])
    assert a.issuperset(SeqnoSet([1, 3]))
    assert not SeqnoSet([1, 3]).issuperset(a)
    assert a.issuperset(SeqnoSet())


def test_copy_is_independent():
    a = SeqnoSet([1, 2])
    b = a.copy()
    b.add(9)
    assert 9 not in a
    assert 9 in b


def test_equality_by_membership():
    assert SeqnoSet([1, 2, 3]) == SeqnoSet.range(1, 3)
    assert SeqnoSet([1]) != SeqnoSet([2])
    assert SeqnoSet() == SeqnoSet()
    assert SeqnoSet([1]).__eq__(42) is NotImplemented


class TestPruning:
    def test_prune_keeps_membership(self):
        s = SeqnoSet.range(1, 10)
        s.prune_through(7)
        assert s.floor == 7
        assert 5 in s
        assert 10 in s
        assert len(s) == 10
        assert s.max_seqno == 10

    def test_prune_with_gap_raises(self):
        s = SeqnoSet([1, 2, 4])
        with pytest.raises(ValueError):
            s.prune_through(4)
        s_ok = SeqnoSet([1, 2, 4])
        s_ok.prune_through(2)  # 1..2 contiguous is fine
        assert s_ok.floor == 2

    def test_prune_is_idempotent_and_monotone(self):
        s = SeqnoSet.range(1, 10)
        s.prune_through(5)
        s.prune_through(3)  # lower than floor: no-op
        assert s.floor == 5
        s.prune_through(10)
        assert s.floor == 10
        assert s.ranges() == []
        assert s.max_seqno == 10

    def test_add_below_floor_is_noop(self):
        s = SeqnoSet.range(1, 5)
        s.prune_through(5)
        assert s.add(3) is False
        assert s.add(6) is True

    def test_update_from_pruned_set(self):
        pruned = SeqnoSet.range(1, 6)
        pruned.prune_through(6)
        target = SeqnoSet([2])
        assert target.update(pruned) is True
        assert list(target) == [1, 2, 3, 4, 5, 6]

    def test_iter_and_gaps_respect_floor(self):
        s = SeqnoSet.range(1, 4)
        s.prune_through(4)
        s.add(7)
        assert list(s) == [1, 2, 3, 4, 7]
        assert s.gaps() == [5, 6]


class TestPartialOrder:
    def test_info_less_uses_max_only(self):
        # The paper's order ignores membership below the max.
        a = SeqnoSet([1, 2, 3])
        b = SeqnoSet([5])
        assert info_less(a, b)
        assert not info_less(b, a)

    def test_info_equiv(self):
        assert info_equiv(SeqnoSet([1, 5]), SeqnoSet([2, 3, 5]))
        assert not info_equiv(SeqnoSet([1]), SeqnoSet([2]))
        assert info_equiv(SeqnoSet(), SeqnoSet())

    def test_empty_set_is_least(self):
        assert info_less(SeqnoSet(), SeqnoSet([1]))
        assert info_leq(SeqnoSet(), SeqnoSet())

    def test_info_leq(self):
        assert info_leq(SeqnoSet([3]), SeqnoSet([3]))
        assert info_leq(SeqnoSet([2]), SeqnoSet([3]))
        assert not info_leq(SeqnoSet([4]), SeqnoSet([3]))


def test_repr_readable():
    s = SeqnoSet.range(1, 3)
    s.prune_through(2)
    assert "1..2*" in repr(s)
    assert "3" in repr(s)


class TestSnapshots:
    """``snapshot()`` seals a set once per change; the seal is enforced."""

    MUTATORS = [
        ("add", (9,)),
        ("add_range", (9, 12)),
        ("update", (SeqnoSet([20]),)),
        ("truncate_above", (1,)),
        ("prune_through", (1,)),
    ]

    @pytest.mark.parametrize("name,args", MUTATORS)
    def test_every_mutator_of_a_frozen_set_raises(self, name, args):
        frozen = SeqnoSet([1, 2, 5]).snapshot()
        with pytest.raises(TypeError):
            getattr(frozen, name)(*args)
        assert list(frozen) == [1, 2, 5]

    def test_copy_of_a_frozen_set_is_mutable_and_independent(self):
        frozen = SeqnoSet([1, 2, 5]).snapshot()
        mine = frozen.copy()
        assert type(mine) is SeqnoSet and mine == frozen
        mine.add(3)
        mine.prune_through(3)
        assert list(frozen) == [1, 2, 5]
        assert 3 in mine and 3 not in frozen

    def test_frozen_constructor_and_canonical(self):
        assert FrozenSeqnoSet().canonical == (0, ())
        with pytest.raises(TypeError):
            FrozenSeqnoSet([1, 2])  # filling it would mutate it
        frozen = SeqnoSet([1, 2, 5, 6]).snapshot()
        assert frozen.canonical == (0, ((1, 2), (5, 6)))
        live = SeqnoSet.range(1, 9)
        live.add(12)
        live.prune_through(4)
        assert live.snapshot().canonical == (4, ((5, 9), (12, 12)))
        assert frozen.snapshot() is frozen

    def test_snapshot_is_shared_while_the_set_is_unchanged(self):
        live = SeqnoSet([1, 2, 5])
        first = live.snapshot()
        assert live.snapshot() is first
        assert live.snapshot() == live

    @pytest.mark.parametrize("mutate", [
        lambda s: s.add(6),                # extends the last run
        lambda s: s.add(9),                # a new run
        lambda s: s.add_range(7, 8),       # another new run
        lambda s: s.update(SeqnoSet([11])),
        lambda s: s.truncate_above(4),
        lambda s: s.prune_through(2),      # same members, new floor
    ])
    def test_each_mutation_makes_a_new_snapshot(self, mutate):
        live = SeqnoSet([1, 2, 5])
        before = live.snapshot()
        mutate(live)
        after = live.snapshot()
        assert after is not before
        assert after == live
        assert after.runs() == live.runs()
        assert list(before) == [1, 2, 5]

    def test_hole_fill_that_moves_only_one_lo_is_seen(self):
        """Floor, maximum and run count all stay the same: only run
        compare, not a (floor, max, #runs) key, sees the change."""
        live = SeqnoSet([1, 2, 5, 6, 9])
        before = live.snapshot()
        live.add(4)  # run 5..6 becomes 4..6
        after = live.snapshot()
        assert (after.floor, after.max_seqno, len(after.ranges())) == (
            before.floor, before.max_seqno, len(before.ranges()))
        assert after is not before
        assert 4 in after and 4 not in before

    def test_copies_do_not_share_the_cached_snapshot(self):
        live = SeqnoSet([1, 2])
        snap = live.snapshot()
        other = live.copy()
        other.add(3)
        assert other.snapshot() is not snap
        assert live.snapshot() is snap
