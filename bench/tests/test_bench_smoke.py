"""Smoke tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``; this
directory is outside tier-1's ``testpaths`` on purpose (it spawns the
whole benchmark at smoke size, about fifteen seconds).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in DECLARATION["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> Tuple[dict, dict]:
    """(detail, result) of a single-workload run."""
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick_sections() -> Dict[str, List[Tuple[str, float, str]]]:
    """``{workload: [(metric, value, unit), ...]}`` of one ``--quick`` run."""
    done = bench("--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    sections: Dict[str, List[Tuple[str, float, str]]] = {}
    current = None
    for line in done.stdout.splitlines():
        header = re.match(r"^== (\S+) ", line)
        if header:
            current = sections.setdefault(header.group(1), [])
            continue
        row = re.match(r"^    (\S+)\s+(\S+) (\S+)$", line)
        if row and current is not None:
            current.append((row.group(1), float(row.group(2)), row.group(3)))
    return sections


def test_declaration_meets_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds", "workloads",
                                "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["bench"]
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    assert 1 <= DECLARATION["run_seconds"] <= 60
    names = (WORKLOADS + [m["name"] for m in DECLARATION["end_to_end"]]
             + [m["name"] for m in DECLARATION["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in DECLARATION["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in DECLARATION["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARATION["end_to_end"])


def test_quick_run_prints_every_declared_metric_once_per_workload(quick_sections):
    declared = {m["name"]: m["unit"] for m in
                DECLARATION["end_to_end"] + DECLARATION["per_layer"]}
    assert list(quick_sections) == WORKLOADS
    for workload, rows in quick_sections.items():
        printed = [name for name, _, _ in rows]
        assert sorted(printed) == sorted(declared), workload
        for name, _, unit in rows:
            assert unit == declared[name], (workload, name)


def test_end_to_end_metrics_are_never_zero(quick_sections):
    for workload, rows in quick_sections.items():
        values = {name: value for name, value, _ in rows}
        for metric in DECLARATION["end_to_end"]:
            assert values[metric["name"]] > 0, (workload, metric["name"])


def test_layers_a_workload_bypasses_make_zero_calls(quick_sections):
    def calls(workload: str, layer: str) -> float:
        values = {name: value for name, value, _ in quick_sections[workload]}
        return values[f"{layer}.calls_per_delivery"]

    for layer in ("core.host", "core.seqnoset", "core.mapstate",
                  "core.attachment"):
        assert calls("sim_basic_steady", layer) == 0
        assert calls("sim_tree_steady", layer) > 0
    for layer in ("sim.kernel", "net.link", "net.server"):
        assert calls("udp_tree_closed", layer) == 0
    for workload in WORKLOADS:
        for layer in ("chaos", "verify.monitor"):
            exercised = workload == "sim_tree_chaos"
            assert (calls(workload, layer) > 0) == exercised, (workload, layer)
    for layer in ("io.aio", "io.udp"):
        assert calls("udp_tree_closed", layer) > 0
        assert calls("sim_tree_steady", layer) == 0


def test_single_workload_run_prints_the_contract_object():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = bench("--workload", "sim_basic_steady", "--quick",
                     "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        _, result = result_of(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in DECLARATION[section]}
        assert {name: metric["unit"] for name, metric in
                result["metrics"].items()} == declared
        for metric in result["metrics"].values():
            assert set(metric) == {"value", "unit"}


def test_seed_is_honoured_and_simulated_cells_repeat():
    def signatures(seed: int, trace: int) -> List[str]:
        done = bench("--workload", "sim_tree_steady", "--quick",
                     "--seed", str(seed), "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        detail, _ = result_of(done)
        return [cell["signature"] for cell in detail["cells"]]

    first = signatures(1, 0)
    assert signatures(1, 0) == first
    assert signatures(2, 0) != first
    # The traced run holds a plain and a profiled cycle of the same cells:
    # profiling must not perturb the simulation.
    plain, profiled = signatures(1, 1)
    assert plain == profiled == first[0]


def test_unattributed_self_time_stays_small():
    for workload in WORKLOADS:
        done = bench("--workload", workload, "--quick", "--trace", "1")
        assert done.returncode == 0, done.stderr
        detail, _ = result_of(done)
        assert detail["unattributed_share"] < 0.05, workload


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sim_tree_steady", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
