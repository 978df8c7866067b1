"""Unit tests for MAP / parent-pointer state."""

from repro.core import MapState, SeqnoSet
from repro.net import HostId

ME, A, B, C = (HostId(x) for x in "mabc")


def make_state():
    own = SeqnoSet([1, 2, 3])
    return MapState(ME, own), own


def test_own_view_aliases_info():
    state, own = make_state()
    assert state.info_of(ME) is own
    own.add(4)
    assert 4 in state.info_of(ME)


def test_unknown_host_has_empty_view():
    state, _ = make_state()
    assert state.info_of(A).max_seqno == 0
    assert state.parent_of(A) is None
    assert state.authoritative_prefix(A) == 0


def test_apply_info_replaces_view():
    state, _ = make_state()
    state.note_sent(A, 5)  # optimistic
    state.note_sent(A, 6)
    state.apply_info(A, SeqnoSet([1, 2]), parent=B)
    assert list(state.info_of(A)) == [1, 2]  # marks wiped
    assert state.parent_of(A) == B


def test_apply_info_for_self_is_ignored():
    state, own = make_state()
    state.apply_info(ME, SeqnoSet([99]), parent=A)
    assert 99 not in own
    assert state.parent_of(ME) is None


def test_note_has_adds_single_seq():
    state, _ = make_state()
    state.note_has(A, 7)
    assert 7 in state.info_of(A)
    state.note_has(ME, 9)  # self no-op through this path
    assert 9 in state.info_of(ME) or True


def test_authoritative_prefix_tracks_snapshots_not_marks():
    state, _ = make_state()
    for seq in (1, 2, 3):
        state.note_sent(A, seq)
    assert state.authoritative_prefix(A) == 0  # optimistic marks don't count
    state.apply_info(A, SeqnoSet([1, 2]), parent=None)
    assert state.authoritative_prefix(A) == 2
    # A stale snapshot cannot regress the proven prefix.
    state.apply_info(A, SeqnoSet([1]), parent=None)
    assert state.authoritative_prefix(A) == 2


def test_authoritative_prefix_of_self():
    state, own = make_state()
    assert state.authoritative_prefix(ME) == 3


def test_known_hosts():
    state, _ = make_state()
    state.apply_info(A, SeqnoSet(), None)
    assert state.known_hosts() == {ME, A}


class TestAncestorWalks:
    def test_simple_chain(self):
        state, _ = make_state()
        state.set_parent_view(A, B)
        state.set_parent_view(B, C)
        chain, through_me = state.ancestors_of_me(A)
        assert chain == [A, B, C]
        assert not through_me

    def test_chain_ends_at_unknown_parent(self):
        state, _ = make_state()
        chain, through_me = state.ancestors_of_me(A)
        assert chain == [A]
        assert not through_me

    def test_no_parent_no_ancestors(self):
        state, _ = make_state()
        chain, through_me = state.ancestors_of_me(None)
        assert chain == []
        assert not through_me

    def test_cycle_through_me_detected(self):
        state, _ = make_state()
        state.set_parent_view(A, B)
        state.set_parent_view(B, ME)
        chain, through_me = state.ancestors_of_me(A)
        assert through_me
        assert chain == [A, B]
        assert state.cycle_members(A) == [ME, A, B]

    def test_cycle_not_through_me_terminates(self):
        state, _ = make_state()
        state.set_parent_view(A, B)
        state.set_parent_view(B, C)
        state.set_parent_view(C, B)  # B <-> C loop, me outside
        chain, through_me = state.ancestors_of_me(A)
        assert not through_me
        assert chain == [A, B, C]
        assert state.cycle_members(A) == []

    def test_set_parent_view_ignores_self(self):
        state, _ = make_state()
        state.set_parent_view(ME, A)
        assert state.parent_of(ME) is None


class TestPersistentHoles:
    def test_no_snapshots_means_no_persistent_hole(self):
        state, _ = make_state()
        assert not state.persistent_hole(A, 1)

    def test_single_snapshot_is_not_persistent(self):
        state, _ = make_state()
        state.apply_info(A, SeqnoSet([2, 3]), None)  # hole at 1
        assert not state.persistent_hole(A, 1)

    def test_hole_across_two_snapshots_is_persistent(self):
        state, _ = make_state()
        state.apply_info(A, SeqnoSet([2, 3]), None)
        state.apply_info(A, SeqnoSet([2, 3, 4]), None)
        assert state.persistent_hole(A, 1)

    def test_repaired_hole_stops_being_persistent(self):
        state, _ = make_state()
        state.apply_info(A, SeqnoSet([2, 3]), None)
        state.apply_info(A, SeqnoSet([1, 2, 3]), None)
        assert not state.persistent_hole(A, 1)

    def test_frontier_is_never_a_hole(self):
        state, _ = make_state()
        state.apply_info(A, SeqnoSet([1, 2]), None)
        state.apply_info(A, SeqnoSet([1, 2]), None)
        # 3 is beyond A's max in both snapshots: frontier, not a hole.
        assert not state.persistent_hole(A, 3)

    def test_new_hole_needs_two_sightings(self):
        state, _ = make_state()
        state.apply_info(A, SeqnoSet([1, 2]), None)
        state.apply_info(A, SeqnoSet([1, 2, 4]), None)  # hole at 3 appears
        assert not state.persistent_hole(A, 3)
        state.apply_info(A, SeqnoSet([1, 2, 4, 5]), None)
        assert state.persistent_hole(A, 3)

    def test_optimistic_marks_do_not_affect_persistence(self):
        state, _ = make_state()
        state.apply_info(A, SeqnoSet([2, 3]), None)
        state.apply_info(A, SeqnoSet([2, 3]), None)
        state.note_sent(A, 1)  # optimistic; not authoritative
        assert state.persistent_hole(A, 1)
