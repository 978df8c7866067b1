"""The declarative experiment registry."""

import re
from pathlib import Path

import pytest

from repro.experiments import REGISTRY, ExperimentSpec, get_spec
from repro.experiments import runners as runners_module
from repro.experiments.records import ExperimentResult
from repro.experiments.registry import register, run_registered

from .test_verdicts import default_result


def dummy_claims(judge):
    judge.each("§0: width is positive", lambda r: r["width"] > 0, "width")


def dummy_runner(seed=7, width=3):
    """A dummy table for spec introspection."""
    result = ExperimentResult("EX", "dummy", ["seed", "width"])
    result.add_row(seed=seed, width=width)
    return result


def seedless_runner(rng_seed=7):
    """A runner that names its seed anything but ``seed``."""
    return ExperimentResult("EZ", "dummy", [])


def executor_runner(seed=1, executor=None):
    result = ExperimentResult("EY", "dummy", ["seed", "saw_executor"])
    result.add_row(seed=seed, saw_executor=executor is not None)
    return result


class TestSpecIntrospection:
    def test_defaults_and_title_from_signature(self):
        spec = ExperimentSpec.from_runner("EX", dummy_runner, dummy_claims)
        assert spec.defaults == {"seed": 7, "width": 3}
        assert spec.title == "A dummy table for spec introspection"
        assert spec.default_seed == 7
        assert not spec.accepts_executor

    def test_missing_seed_param_fails_at_registration(self):
        with pytest.raises(ValueError, match="no parameter 'seed'"):
            ExperimentSpec.from_runner("EZ", seedless_runner, dummy_claims)

    def test_missing_verdict_fails_at_registration(self):
        with pytest.raises(ValueError, match="no verdict"):
            register("EX", None)(dummy_runner)
        assert "EX" not in REGISTRY

    def test_spec_carries_its_verdict(self):
        spec = ExperimentSpec.from_runner("EX", dummy_runner, dummy_claims)
        assert spec.verdict(spec.run()).ok
        assert not spec.verdict(spec.run(width=0)).ok

    def test_seed_overrides_the_runner_default(self):
        spec = ExperimentSpec.from_runner("EX", dummy_runner, dummy_claims)
        assert spec.run(seed=99).rows[0]["seed"] == 99
        assert spec.run().rows[0]["seed"] == 7

    def test_executor_forwarded_only_when_accepted(self):
        from repro.exec import SerialExecutor

        plain = ExperimentSpec.from_runner("EX", dummy_runner, dummy_claims)
        fanout = ExperimentSpec.from_runner("EY", executor_runner, dummy_claims)
        assert fanout.accepts_executor
        assert "executor" not in fanout.defaults
        executor = SerialExecutor()
        # No TypeError on the serial runner, forwarded to the other.
        assert plain.run(executor=executor).rows[0]["width"] == 3
        assert fanout.run(executor=executor).rows[0]["saw_executor"]

    def test_cache_params_resolve_defaults_seed_and_overrides(self):
        spec = ExperimentSpec.from_runner("EX", dummy_runner, dummy_claims)
        assert spec.cache_params(seed=5, width=9) == {"seed": 5, "width": 9}
        assert spec.cache_params() == {"seed": 7, "width": 3}


class TestRegistry:
    def test_all_e_series_registered(self):
        # Runners register in definition order, which is the canonical
        # order --list and RESULTS.md follow.
        assert list(REGISTRY) == (
            ["E1", "E2", "E3", "E4", "E5", "E6", "E6b"]
            + [f"E{i}" for i in range(7, 26)])

    def test_a_duplicate_id_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("E1", dummy_claims)(dummy_runner)
        assert REGISTRY["E1"].runner is runners_module.run_e1_cost

    def test_specs_know_their_runner_defaults(self):
        spec = get_spec("E2")
        assert spec.runner is runners_module.run_e2_delay
        assert "ks" in spec.defaults and "ms" in spec.defaults
        assert spec.accepts_executor

    def test_get_spec_unknown_lists_known_ids(self):
        with pytest.raises(KeyError, match="E99.*E1"):
            get_spec("E99")

    def test_run_registered_threads_seed(self):
        result = run_registered("E9", seed=123)
        assert result.experiment_id == "E9"


def _mask_e22_wall_clock(markdown):
    """Blank E22's wall_s and speedup cells and its note: they time the
    machine, so they differ on every run."""
    head, sep, rest = markdown.partition("### E22: ")
    section, nxt, tail = rest.partition("\n### ")
    section = re.sub(r"^(\| \d+ \| \d+ \|)[^|\n]*\|[^|\n]*\|",
                     r"\1 - | - |", section, flags=re.M)
    section = re.sub(r"^\*host has .*\*$", "*-*", section, flags=re.M)
    return head + sep + section + nxt + tail


def test_results_md_has_a_table_for_every_registered_experiment():
    """RESULTS.md is `python -m repro experiments --markdown`, committed:
    every experiment's table and verdict at its defaults, cell for cell
    and claim for claim, E22's wall clock aside."""
    results = (Path(__file__).resolve().parents[2] / "RESULTS.md").read_text()
    headings = [line for line in results.splitlines()
                if line.startswith("### ")]
    missing = [exp_id for exp_id in REGISTRY
               if not any(h.startswith(f"### {exp_id}: ") for h in headings)]
    assert not missing, f"regenerate RESULTS.md; no table for {missing}"
    rendered = "".join(
        f"\n{default_result(exp_id).render_markdown()}\n\n"
        f"{spec.verdict(default_result(exp_id)).render_markdown()}\n"
        for exp_id, spec in REGISTRY.items())
    assert (_mask_e22_wall_clock(results)
            == _mask_e22_wall_clock(rendered)), (
        "regenerate RESULTS.md: PYTHONPATH=src python -m repro experiments "
        "--markdown > RESULTS.md")
