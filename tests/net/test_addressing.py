"""Unit tests for identifiers."""

import copy
import pickle

import pytest

from repro.net import HostId, LinkId, ServerId, host_id, server_id


def test_host_and_server_ids_are_distinct_types():
    assert host_id("x") == HostId("x")
    assert server_id("x") == ServerId("x")
    assert host_id("x") != server_id("x")


def test_ids_are_hashable_and_ordered():
    ids = sorted([host_id("b"), host_id("a"), host_id("c")])
    assert [i.name for i in ids] == ["a", "b", "c"]
    assert len({host_id("a"), host_id("a")}) == 1


def test_link_id_normalizes_endpoint_order():
    assert LinkId.of("s2", "s1") == LinkId.of("s1", "s2")
    assert str(LinkId.of("b", "a")) == "a<->b"


def test_str_forms():
    assert str(host_id("h1")) == "h1"
    assert str(server_id("s1")) == "s1"


class TestInternedHostId:
    def test_one_instance_per_name(self):
        assert HostId("a") is HostId("a")
        assert HostId(HostId("a")) is HostId("a")

    def test_pickle_round_trip_returns_the_same_object(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(HostId("a"), protocol)) is HostId("a")
        assert copy.deepcopy([HostId("a")])[0] is HostId("a")

    def test_str_and_name_are_one_cached_plain_str(self):
        h = HostId("h1")
        assert str(h) is str(h)
        assert h.name is str(h)
        assert type(str(h)) is str

    def test_repr_is_unchanged(self):
        assert repr(HostId("h0.1")) == "HostId(name='h0.1')"

    def test_sort_order_is_name_order(self):
        names = ["h10", "h2", "b", "a", "h1.0", "h0.3"]
        assert [h.name for h in sorted(HostId(n) for n in names)] == sorted(names)

    def test_equals_its_name_but_never_a_server_id(self):
        # On purpose: a plain name looks a HostId up in host-keyed maps.
        assert HostId("x") == "x"
        assert {HostId("x"): 1}["x"] == 1
        assert HostId("x") != ServerId("x")
        assert not HostId("x") == ServerId("x")

    def test_is_immutable_and_takes_only_strings(self):
        with pytest.raises(AttributeError):
            HostId("a").name = "b"  # type: ignore[misc]
        with pytest.raises(TypeError):
            HostId(5)  # type: ignore[arg-type]
