"""Tests for the experiment harness (small, fast parameterizations).

Each experiment runs here with reduced parameters and must still pass
its verdict: the paper claims declared beside its runner, which
``test_verdicts.py`` checks at the defaults.  A reduced sweep keeps
every point a claim reads, so the claims are checked off the default
table too.
"""

import pytest

from repro.experiments import (
    ExperimentResult,
    get_spec,
    run_e1_cost,
    run_e2_delay,
    run_e3_recovery,
    run_e4_partition,
    run_e5_congestion,
    run_e6_control,
    run_e6_tuning,
    run_e7_tradeoff,
    run_e8_fig31,
    run_e9_fig41,
    run_e10_ablation,
    run_e11_fig32,
    run_e12_epidemic,
    run_e20_host_churn,
)
from repro.scenarios import WindowSpec


class TestExperimentResult:
    def test_row_validation(self):
        result = ExperimentResult("X", "t", ["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(a=1)
        result.add_row(a=1, b=2)
        assert "X: t" in result.render()

    def test_notes_rendered(self):
        result = ExperimentResult("X", "t", ["a"])
        result.add_row(a=1)
        result.note("hello")
        assert "note: hello" in result.render()


def assert_verdict(result):
    verdict = get_spec(result.experiment_id).verdict(result)
    assert verdict.ok, verdict.render()


def test_e1_tree_near_optimal_and_beats_basic():
    assert_verdict(run_e1_cost(ks=(2, 3), ms=(1, 3), n=10, warmup=3))


def test_e2_delays_comparable():
    assert_verdict(run_e2_delay(ks=(2,), ms=(2,), n=10, warmup=3))


def test_e3_tree_recovers_locally_basic_from_source():
    assert_verdict(run_e3_recovery(losses=(0.1,), n=15))


def test_e4_basic_wastes_more_during_partition():
    assert_verdict(run_e4_partition(n=20, partition=(8.0, 30.0)))


def test_e5_basic_concentrates_load_at_source():
    # Two host counts: the claim that basic's concentration grows with N
    # needs more than one.
    assert_verdict(run_e5_congestion(ms=(2, 4), n=10))


def test_e6_tree_control_independent_of_stream_length():
    assert_verdict(run_e6_control(stream_sizes=(0, 100), horizon=60.0))


def test_e6b_control_scales_inversely_with_period():
    assert_verdict(run_e6_tuning(factors=(1.0, 2.0), horizon=60.0))


def test_e7_faster_exchange_more_reliable_more_costly():
    assert_verdict(run_e7_tradeoff(
        factors=(0.5, 4.0), horizon=100.0, n=5, trials=3,
        window=WindowSpec(period=30.0, width=4.0, first_open=20.0)))


def test_e8_matches_figure_3_1_exactly():
    assert_verdict(run_e8_fig31(n=10, warmup=3))


def test_e9_non_neighbor_gapfill_converges():
    assert_verdict(run_e9_fig41())


def test_e10_singleton_mode_works_but_costs_more():
    assert_verdict(run_e10_ablation(n=15, churn=False))


def test_e11_invariants_hold_on_figure_3_2():
    assert_verdict(run_e11_fig32(n=5))


def test_e20_tree_at_least_as_reliable_under_host_churn():
    assert_verdict(run_e20_host_churn(n=10, heal_by=30.0, mean_up=12.0,
                                      mean_down=4.0, horizon=200.0))


def test_e12_tree_cheapest_on_inter_cluster_traffic():
    assert_verdict(run_e12_epidemic(n=10, warmup=3))
