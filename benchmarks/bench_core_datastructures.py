"""Micro-benchmarks of the protocol's hot data structures.

These are classic pytest-benchmark timing runs (many rounds) rather
than experiment reproductions: SeqnoSet is touched on every message at
every host, so its operations must stay cheap even with gaps.
"""

import random

from repro.core import SeqnoSet


def make_gappy_set(n=2_000, hole_every=7, seed=1):
    rng = random.Random(seed)
    s = SeqnoSet()
    for seq in range(1, n + 1):
        if seq % hole_every:
            s.add(seq)
    return s


def test_seqnoset_sequential_add(benchmark):
    def run():
        s = SeqnoSet()
        for seq in range(1, 2_001):
            s.add(seq)
        return s

    result = benchmark(run)
    assert len(result) == 2_000
    assert len(result.ranges()) == 1  # coalesced to one range


def test_seqnoset_gappy_add(benchmark):
    result = benchmark(make_gappy_set)
    assert result.max_seqno == 2_000


def test_seqnoset_membership(benchmark):
    s = make_gappy_set()

    def run():
        return sum((seq in s) for seq in range(1, 2_001))

    present = benchmark(run)
    assert present == len(s)


def test_seqnoset_difference(benchmark):
    mine = SeqnoSet.range(1, 2_000)
    theirs = make_gappy_set()

    def run():
        return mine.difference(theirs, limit=50)

    missing = benchmark(run)
    assert len(missing) == 50


def test_seqnoset_difference_contiguous_one_behind(benchmark):
    """The shape real traffic has (DESIGN.md §8): a long gap-free INFO set
    against a view that lacks only the newest message.  The gappy case
    above has 286 runs; every benchmark workload has at most 5."""
    mine = SeqnoSet.range(1, 4_000)
    view = SeqnoSet.range(1, 3_999)

    missing = benchmark(mine.difference, view)
    assert missing == [4_000]


def test_seqnoset_update_union(benchmark):
    base = make_gappy_set(seed=1)
    other = make_gappy_set(hole_every=5, seed=2)

    def run():
        merged = base.copy()
        merged.update(other)
        return merged

    merged = benchmark(run)
    assert len(merged) >= len(base)


def test_seqnoset_snapshot_copy(benchmark):
    s = make_gappy_set()
    result = benchmark(s.copy)
    assert list(result) == list(s)
