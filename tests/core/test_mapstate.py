"""Unit tests for MAP / parent-pointer state."""

import pytest

from repro.core import AttachRequest, InfoMsg, MapState, SeqnoSet
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


def test_reads_and_optimistic_marks_do_not_make_a_host_known():
    state, _ = make_state()
    assert state.info_of(A).max_seqno == 0
    state.note_sent(A, 1)
    assert A not in state.known_hosts()
    assert 1 in state.info_of(A)  # the mark itself is kept
    state.apply_info(A, SeqnoSet([1]), None)
    assert A in state.known_hosts()


def test_data_and_attach_evidence_make_a_host_known():
    state, _ = make_state()
    state.note_has(A, 4)
    state.merge(B, SeqnoSet([1, 2]))
    assert state.known_hosts() == {ME, A, B}


def test_reading_an_unknown_host_creates_no_view():
    state, _ = make_state()
    empty = state.info_of(A)
    assert empty is state.info_of(B)  # one shared empty snapshot
    with pytest.raises(TypeError):
        empty.add(1)
    assert state.known_hosts() == {ME}


class TestCopyOnWriteViews:
    """A view is the received snapshot until its first mark."""

    def test_apply_info_adopts_the_payload_set_without_copying(self):
        state, _ = make_state()
        msg = InfoMsg(A, SeqnoSet([1, 2]), B)
        state.apply_info(A, msg.info, msg.parent)
        assert state.info_of(A) is msg.info

    def test_marks_never_write_to_the_snapshot(self):
        state, _ = make_state()
        first = InfoMsg(A, SeqnoSet([1, 3]), None)
        msg = InfoMsg(A, SeqnoSet([1, 3, 5]), None)
        state.apply_info(A, first.info, None)
        state.apply_info(A, msg.info, None)
        state.note_sent(A, 2)
        state.note_sent(A, 6)
        state.note_has(A, 4)
        assert list(msg.info) == [1, 3, 5]
        assert list(state.info_of(A)) == [1, 2, 3, 4, 5, 6]
        assert state.authoritative_prefix(A) == 1
        assert state.persistent_hole(A, 2)  # marks are not authoritative

    def test_merge_unions_into_a_copy(self):
        state, _ = make_state()
        msg = InfoMsg(A, SeqnoSet([1, 2]), None)
        state.apply_info(A, msg.info, None)
        request = AttachRequest(A, SeqnoSet([4, 5]))
        state.merge(A, request.child_info)
        assert list(state.info_of(A)) == [1, 2, 4, 5]
        assert list(msg.info) == [1, 2]
        assert list(request.child_info) == [4, 5]
        assert state.info_of(A) is not msg.info

    def test_merge_into_an_unknown_host(self):
        state, _ = make_state()
        info = SeqnoSet([1, 2])
        state.merge(A, info)
        state.note_sent(A, 3)
        assert list(state.info_of(A)) == [1, 2, 3]
        assert list(info) == [1, 2]

    def test_own_view_is_never_marked_or_merged(self):
        state, own = make_state()
        state.note_sent(ME, 9)
        state.merge(ME, SeqnoSet([10]))
        assert list(own) == [1, 2, 3]


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
