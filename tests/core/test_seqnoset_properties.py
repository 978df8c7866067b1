"""Property-based tests: SeqnoSet vs a model built on Python's set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seqnoset import SeqnoSet, info_equiv, info_less

seqnos = st.integers(min_value=1, max_value=60)
seqno_lists = st.lists(seqnos, max_size=40)
ranges_strategy = st.tuples(seqnos, seqnos).map(lambda t: (min(t), max(t)))


@given(seqno_lists)
def test_membership_matches_model(items):
    model = set(items)
    s = SeqnoSet(items)
    assert list(s) == sorted(model)
    assert len(s) == len(model)
    for x in range(0, 65):
        assert (x in s) == (x in model)


@given(seqno_lists)
def test_ranges_are_sorted_disjoint_nonadjacent(items):
    s = SeqnoSet(items)
    ranges = s.ranges()
    for lo, hi in ranges:
        assert lo <= hi
    for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
        assert hi1 + 1 < lo2  # disjoint and non-adjacent (coalesced)


@given(seqno_lists, st.lists(ranges_strategy, max_size=10))
def test_add_range_matches_model(items, extra_ranges):
    model = set(items)
    s = SeqnoSet(items)
    for lo, hi in extra_ranges:
        added = s.add_range(lo, hi)
        new = set(range(lo, hi + 1)) - model
        assert added == bool(new)
        model |= set(range(lo, hi + 1))
    assert list(s) == sorted(model)


@given(seqno_lists, seqno_lists)
def test_update_is_union(a_items, b_items):
    a = SeqnoSet(a_items)
    b = SeqnoSet(b_items)
    changed = a.update(b)
    assert changed == bool(set(b_items) - set(a_items))
    assert list(a) == sorted(set(a_items) | set(b_items))


@given(seqno_lists, seqno_lists)
def test_difference_matches_model(a_items, b_items):
    a = SeqnoSet(a_items)
    b = SeqnoSet(b_items)
    assert a.difference(b) == sorted(set(a_items) - set(b_items))


@given(seqno_lists, st.integers(min_value=1, max_value=70))
def test_missing_below_matches_model(items, limit):
    s = SeqnoSet(items)
    expected = [x for x in range(1, limit) if x not in set(items)]
    assert s.missing_below(limit) == expected


@given(seqno_lists)
def test_max_matches_model(items):
    s = SeqnoSet(items)
    assert s.max_seqno == (max(items) if items else 0)


@given(seqno_lists, seqno_lists)
def test_partial_order_matches_max_comparison(a_items, b_items):
    a, b = SeqnoSet(a_items), SeqnoSet(b_items)
    ma = max(a_items) if a_items else 0
    mb = max(b_items) if b_items else 0
    assert info_less(a, b) == (ma < mb)
    assert info_equiv(a, b) == (ma == mb)


@given(st.integers(min_value=1, max_value=40), seqno_lists)
def test_prune_preserves_membership(n, extra):
    s = SeqnoSet.range(1, n)
    for x in extra:
        s.add(x)
    model = set(range(1, n + 1)) | set(extra)
    s.prune_through(n)
    assert list(s) == sorted(model)
    for x in range(0, 70):
        assert (x in s) == (x in model)


@given(seqno_lists, st.lists(seqnos, max_size=20))
def test_adds_after_prune_match_model(base, later):
    s = SeqnoSet(base)
    model = set(base)
    prefix = 0
    while prefix + 1 in model:
        prefix += 1
    if prefix:
        s.prune_through(prefix)
    for x in later:
        assert s.add(x) == (x not in model)
        model.add(x)
    assert list(s) == sorted(model)


@given(seqno_lists, seqno_lists)
def test_issuperset_matches_model(a_items, b_items):
    a, b = SeqnoSet(a_items), SeqnoSet(b_items)
    assert a.issuperset(b) == set(a_items).issuperset(set(b_items))


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["add", "range", "update"]),
                          ranges_strategy), max_size=30))
def test_random_operation_sequences(ops):
    s = SeqnoSet()
    model = set()
    for op, (lo, hi) in ops:
        if op == "add":
            s.add(lo)
            model.add(lo)
        elif op == "range":
            s.add_range(lo, hi)
            model |= set(range(lo, hi + 1))
        else:
            s.update(SeqnoSet.range(lo, hi))
            model |= set(range(lo, hi + 1))
    assert list(s) == sorted(model)


# ----------------------------------------------------------------------
# Pruned sets: every run-wise operation must treat the floor as the run
# [1, floor], also against a set whose floor differs.
# ----------------------------------------------------------------------


def model_prefix(model):
    n = 0
    while n + 1 in model:
        n += 1
    return n


@st.composite
def pruned_sets(draw):
    """A (SeqnoSet, model) pair, pruned through a drawn part of its prefix."""
    model = set(draw(seqno_lists)) | set(range(1, draw(st.integers(0, 30)) + 1))
    s = SeqnoSet(draw(st.permutations(sorted(model))))
    s.prune_through(draw(st.integers(0, model_prefix(model))))
    return s, model


def expand(runs):
    return [seq for lo, hi in runs for seq in range(lo, hi + 1)]


@given(pruned_sets(), st.integers(min_value=0, max_value=70))
def test_truncate_above_matches_model(pruned, n):
    s, model = pruned
    if n < s.floor:
        before = repr(s)
        with pytest.raises(ValueError):
            s.truncate_above(n)
        assert repr(s) == before  # a refused truncation changes nothing
        return
    floor = s.floor
    s.truncate_above(n)
    kept = {x for x in model if x <= n}
    assert list(s) == sorted(kept)
    assert s.floor == floor
    assert s.max_seqno == max(kept, default=0)
    assert len(s) == len(kept)


@given(pruned_sets(), pruned_sets())
def test_difference_across_floors_matches_model(a_pruned, b_pruned):
    (a, a_model), (b, b_model) = a_pruned, b_pruned
    expected = sorted(a_model - b_model)
    assert a.difference(b) == expected
    assert a.difference(b, limit=3) == expected[:3]
    assert list(a.iter_difference(b)) == expected
    runs = a.difference_runs(b)
    assert expand(runs) == expected
    for lo, hi in runs:
        assert lo <= hi
    for (_, hi1), (lo2, _) in zip(runs, runs[1:]):
        assert hi1 < lo2  # ascending and disjoint


@given(pruned_sets(), pruned_sets())
def test_issuperset_and_eq_across_floors_match_model(a_pruned, b_pruned):
    (a, a_model), (b, b_model) = a_pruned, b_pruned
    assert a.issuperset(b) == a_model.issuperset(b_model)
    assert (a == b) == (a_model == b_model)
    assert (a != b) == (a_model != b_model)


@given(pruned_sets())
def test_eq_ignores_the_floor_split(pruned):
    s, model = pruned
    assert s == SeqnoSet(model)
    assert SeqnoSet(model) == s


@given(pruned_sets(), pruned_sets())
def test_update_across_floors_is_union(a_pruned, b_pruned):
    (a, a_model), (b, b_model) = a_pruned, b_pruned
    floor = a.floor
    changed = a.update(b)
    assert changed == bool(b_model - a_model)
    assert list(a) == sorted(a_model | b_model)
    assert a.floor == floor  # only prune_through moves the floor
    assert list(b) == sorted(b_model)  # the argument is not touched


@given(pruned_sets(), st.integers(min_value=0, max_value=70))
def test_prune_through_refuses_gaps_and_keeps_membership(pruned, n):
    s, model = pruned
    if n > model_prefix(model):
        before = repr(s)
        with pytest.raises(ValueError):
            s.prune_through(n)
        assert repr(s) == before  # a refused prune changes nothing
        return
    floor = s.floor
    s.prune_through(n)
    assert s.floor == max(floor, n)
    assert list(s) == sorted(model)
    assert s.contiguous_prefix() == model_prefix(model)
    assert s.missing_below(70) == [x for x in range(1, 70) if x not in model]


@given(pruned_sets(), st.lists(seqnos, max_size=10))
def test_copy_is_independent(pruned, later):
    s, model = pruned
    twin = s.copy()
    assert twin == s and twin.floor == s.floor and twin.ranges() == s.ranges()
    for x in later:
        twin.add(x)
    assert list(s) == sorted(model)  # the original did not move
    s.add_range(61, 65)
    assert list(twin) == sorted(model | set(later))  # nor did the copy


@given(pruned_sets(), pruned_sets(), st.lists(seqnos, max_size=10))
def test_iter_difference_is_fixed_when_called(a_pruned, b_pruned, marks):
    """The gap-fill loop marks ``other`` while it consumes the iterator."""
    (a, a_model), (b, b_model) = a_pruned, b_pruned
    pending = a.iter_difference(b)
    for x in marks:
        b.add(x)
        a.add(x)
    assert list(pending) == sorted(a_model - b_model)


# ----------------------------------------------------------------------
# Scaling guard (no clock): at a trillion members, member-wise code would
# never return; run-wise code does not notice.
# ----------------------------------------------------------------------


def test_operations_do_not_walk_members():
    huge = 10 ** 12
    for prune in (0, huge - 5):
        mine = SeqnoSet.range(1, huge)
        mine.prune_through(prune)
        behind = SeqnoSet.range(1, huge - 1)  # a view one message behind
        assert huge in mine and huge - 7 in mine and huge + 1 not in mine
        assert len(mine) == huge
        assert mine.difference(behind) == [huge]
        assert mine.difference_runs(behind) == [(huge, huge)]
        assert behind.difference(mine) == []
        assert mine.issuperset(behind) and not behind.issuperset(mine)
        assert mine != behind
        assert behind.add(huge) and not behind.add(huge)
        assert mine == behind and behind == mine
        twin = mine.copy()
        assert twin.add(huge + 1) and twin.max_seqno == huge + 1
        assert mine.max_seqno == huge
        assert not mine.update(behind) and twin.update(mine) is False
        assert SeqnoSet.range(1, huge).difference(
            SeqnoSet.range(3, huge), limit=5) == [1, 2]
        assert next(iter(mine)) == 1
        twin.truncate_above(huge - 2)
        assert twin.max_seqno == huge - 2 and mine.difference(twin) == [huge - 1, huge]
        assert mine.gaps() == [] and mine.contiguous_prefix() == huge


# ----------------------------------------------------------------------
# Run state: what the frame codec ships and rebuilds
# ----------------------------------------------------------------------


@given(seqno_lists, st.integers(min_value=0, max_value=60))
def test_from_runs_rebuilds_the_set_exactly(items, prune):
    s = SeqnoSet(items)
    s.prune_through(min(prune, s.contiguous_prefix()))
    floor, los, his = s.runs()
    twin = SeqnoSet.from_runs(floor, list(los), list(his))
    assert twin == s and twin.runs() == s.runs()


@pytest.mark.parametrize("floor, los, his", [
    (-1, [], []),             # negative floor
    (0, [1], []),             # unpaired run
    (0, [0], [2]),            # non-positive member
    (5, [5], [7]),            # run overlaps the floor
    (0, [3], [2]),            # empty run
    (0, [1, 3], [2, 4]),      # adjacent runs
    (0, [4, 1], [5, 2]),      # unsorted runs
    (0, [1, 2], [5, 7]),      # overlapping runs
])
def test_from_runs_rejects_state_that_breaks_the_invariant(floor, los, his):
    with pytest.raises(ValueError):
        SeqnoSet.from_runs(floor, los, his)


def test_from_runs_accepts_a_first_run_adjacent_to_the_floor():
    s = SeqnoSet.from_runs(5, [6], [9])
    assert s.contiguous_prefix() == 9 and s == SeqnoSet.range(1, 9)
