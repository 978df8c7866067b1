"""Tests for the unified CLI: ``python -m repro <subcommand>``."""

import json

import pytest

from repro.cli import grid
from repro.cli import main as unified_main


def main(argv):
    return unified_main(["experiments", *argv])


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out
    assert "E12" in out


def test_unknown_experiment(capsys):
    assert main(["E99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_runs_selected_experiment(capsys):
    assert main(["E9"]) == 0
    out = capsys.readouterr().out
    assert "E9:" in out
    assert "finished in" in out


def test_seed_override(capsys):
    assert main(["E9", "--seed", "123"]) == 0
    assert "E9:" in capsys.readouterr().out


def test_markdown_output(capsys):
    assert main(["E9", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "### E9:" in out
    assert "| host | before |" in out


def test_json_output(tmp_path, capsys):
    path = tmp_path / "results.json"
    assert main(["E9", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data[0]["experiment_id"] == "E9"
    assert data[0]["rows"][0]["after"] == "[1, 2, 3]"


class TestUnifiedCli:
    def test_experiments_list(self, capsys):
        assert unified_main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E22" in out

    def test_experiments_unknown_returns_2(self, capsys):
        assert unified_main(["experiments", "E99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_experiments_parallel_jobs(self, capsys):
        assert unified_main(["experiments", "E9", "E11", "--markdown"]) == 0
        serial = capsys.readouterr().out
        assert unified_main(
            ["experiments", "E9", "E11", "--markdown", "--jobs", "2"]) == 0
        # Same tables, same order, regardless of which worker finished first.
        assert capsys.readouterr().out == serial

    def test_experiments_parallel_runs_an_experiment_that_fans_out(
            self, capsys):
        # E22 starts worker processes of its own; under --jobs it runs
        # inside a fan-out worker, which must be allowed children.
        assert unified_main(["experiments", "E9", "E22", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "failed" not in captured.err
        assert "E22:" in captured.out and "E9:" in captured.out

    def test_experiments_cache_round_trip(self, tmp_path, capsys):
        argv = ["experiments", "E9", "--cache", "--cache-dir", str(tmp_path)]
        assert unified_main(argv) == 0
        first = capsys.readouterr().out
        assert "finished in" in first
        assert unified_main(argv) == 0
        second = capsys.readouterr().out
        assert "[E9 loaded from cache]" in second
        # The table itself is identical; only the status line differs.
        assert second.split("  [E9")[0] == first.split("  [E9")[0]

    def test_cache_miss_on_different_seed(self, tmp_path, capsys):
        base = ["experiments", "E9", "--cache", "--cache-dir", str(tmp_path)]
        assert unified_main(base) == 0
        capsys.readouterr()
        assert unified_main(base + ["--seed", "123"]) == 0
        assert "finished in" in capsys.readouterr().out

    def test_sweep_seed_replicas(self, capsys):
        assert unified_main(["sweep", "E9", "--seeds", "2", "--seed", "8"]) == 0
        out = capsys.readouterr().out
        assert "E9-sweep" in out
        assert "seed" in out

    def test_grid_cartesian_deterministic(self):
        points = list(grid(a=[1, 2], b=["x", "y"]))
        assert points == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_grid_empty(self):
        assert list(grid()) == []

    def test_sweep_unknown_experiment(self, capsys):
        assert unified_main(["sweep", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_unknown_axis_lists_parameters(self, capsys):
        assert unified_main(["sweep", "E9", "--set", "bogus=1,2"]) == 2
        assert "no parameter 'bogus'" in capsys.readouterr().err

    def test_subcommands_are_exactly_the_four(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            unified_main(["perf", "--list"])
        assert exit_info.value.code == 2
        assert "{experiments,sweep,demo,fuzz}" in capsys.readouterr().err
