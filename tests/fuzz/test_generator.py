"""Tests for seed-deterministic fuzz trial generation."""

import pytest

from repro.fuzz import FuzzOptions, generate_trial
from repro.fuzz.generator import build_topology, topology_names
from repro.fuzz.properties import build_system
from repro.fuzz.shrinker import EVENT_FIELDS, fault_event_count


def test_same_seed_same_trial():
    assert generate_trial(42) == generate_trial(42)
    assert generate_trial(42) != generate_trial(43)


def test_options_validation():
    with pytest.raises(ValueError):
        FuzzOptions(protocol="gossip")
    with pytest.raises(ValueError):
        FuzzOptions(adaptive_frac=1.5)
    with pytest.raises(ValueError):
        FuzzOptions(max_clusters=1)
    with pytest.raises(ValueError):
        FuzzOptions(min_fault_events=5, max_fault_events=4)
    with pytest.raises(ValueError):
        FuzzOptions(horizon=0.0)


def test_trials_stay_within_option_bounds():
    options = FuzzOptions(min_fault_events=3, max_fault_events=8,
                          max_clusters=3, max_hosts_per_cluster=2)
    for seed in range(30):
        spec = generate_trial(seed, options)
        assert 3 <= fault_event_count(spec.chaos) <= 8
        assert 2 <= spec.topology.clusters <= 3
        assert 1 <= spec.topology.hosts_per_cluster <= 2
        assert spec.protocol == "tree"


def test_every_generated_trial_builds():
    # The generated spec must name only nodes/links that exist; the
    # cheapest full check is deploying the system for many seeds.
    for seed in range(25):
        sim, built, system = build_system(generate_trial(seed))
        assert built.hosts


def test_faults_respect_heal_by_guarantee():
    for seed in range(30):
        spec = generate_trial(seed)
        heal_by = spec.chaos.heal_by
        for field_name in EVENT_FIELDS:
            for event in getattr(spec.chaos, field_name):
                end = getattr(event, "end", None)
                if end is not None:
                    assert end <= heal_by
                until = getattr(event, "until", None)
                if until is not None:  # windowed partitions end earlier
                    assert until < heal_by


def test_never_crashes_the_source():
    for seed in range(30):
        spec = generate_trial(seed)
        names = topology_names(spec.topology, spec.seed)
        for outage in spec.chaos.host_outages:
            assert outage.host != names.source
        for churn in spec.chaos.host_churn:
            assert names.source not in churn.hosts


def test_two_cluster_ring_trials_build_their_one_trunk():
    rings = [spec for spec in map(generate_trial, range(60))
             if spec.topology.clusters == 2
             and spec.topology.backbone == "ring"]
    assert rings
    for spec in rings:
        _, built = build_topology(spec)
        assert len(built.backbone) == 1


def test_basic_protocol_is_never_adaptive():
    options = FuzzOptions(protocol="basic", adaptive_frac=1.0)
    for seed in range(10):
        spec = generate_trial(seed, options)
        assert spec.protocol == "basic"
        assert spec.adaptive is False
