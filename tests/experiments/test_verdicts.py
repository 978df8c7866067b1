"""Every registered experiment's verdict, at the runner's defaults.

A verdict, declared beside its runner in ``experiments/runners.py``,
states the paper claims the experiment's table must bear out, each with
its section and threshold.  The claims are written for the default
sweep, so each experiment runs here at its defaults, as
``python -m repro experiments`` runs it, and its verdict must pass.
The doctored tables check that a broken claim fails loudly: the verdict
names the claim and the row, and the CLI exits 1.
"""

import copy
import dataclasses
import functools

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, get_spec


@functools.lru_cache(maxsize=None)
def default_result(exp_id):
    return get_spec(exp_id).run()


def failed_claims(exp_id, result):
    verdict = get_spec(exp_id).verdict(result)
    assert not verdict.ok
    return [claim for claim in verdict.claims if not claim.held]


@pytest.mark.parametrize("exp_id", list(REGISTRY))
def test_verdict_holds_at_defaults(exp_id):
    verdict = get_spec(exp_id).verdict(default_result(exp_id))
    assert verdict.claims
    assert all(claim.text.startswith("§") for claim in verdict.claims)
    assert verdict.ok, verdict.render()


def test_a_tree_above_its_cost_bound_fails_e1_naming_the_row():
    result = copy.deepcopy(default_result("E1"))
    row = result.rows[4]
    assert (row["clusters"], row["hosts_per_cluster"]) == (4, 2)
    row["tree"] = 1.6 * row["optimal"] + 0.6
    (claim,) = failed_claims("E1", result)
    assert claim.text == "§5 ¶2-3: tree <= 1.6 x (k-1) + 0.5"
    assert claim.evidence == (
        "clusters=4, hosts_per_cluster=2: tree=5.4, optimal=3",)


def test_the_wrong_gap_supplier_fails_e9_naming_the_row():
    result = copy.deepcopy(default_result("E9"))
    result.rows[0]["gap_supplier"] = "s"
    (claim,) = failed_claims("E9", result)
    assert claim.text.startswith("§4.4, Fig 4.1: each is gap-filled by")
    assert claim.evidence == ("host=i: gap_supplier=s",)


@pytest.mark.parametrize("markdown", [False, True])
def test_the_cli_prints_the_failing_claim_and_exits_1(monkeypatch, capsys,
                                                      markdown):
    spec = get_spec("E9")

    def doctored(seed=8):
        result = spec.runner(seed=seed)
        result.rows[0]["gap_supplier"] = "s"
        return result

    monkeypatch.setitem(REGISTRY, "E9",
                        dataclasses.replace(spec, runner=doctored))
    argv = ["experiments", "E9"] + (["--markdown"] if markdown else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert ("**Verdict: FAIL**" if markdown else "verdict: FAIL") in captured.out
    assert ("FAIL §4.4, Fig 4.1: each is gap-filled by the other, a "
            "non-neighbor [host=i: gap_supplier=s]") in captured.out
    assert "verdict FAIL: E9" in captured.err
