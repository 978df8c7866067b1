"""The all-workloads run: subprocess per workload, tables, result files,
the ``--agree`` self-check and the ``trend`` table."""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .layers import LAYER_NAMES
from .runner import load_declaration

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def _run_child(workload: str, seed: int, seconds: float, trace: int,
               quick: bool) -> Tuple[Dict[str, Any], Dict[str, Any], int]:
    """One workload in a fresh interpreter, so its peak RSS is its own."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench: {workload}: run printed no result "
                         f"(exit status {done.returncode})")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), done.returncode


def _print_metrics(title: str, declared: List[Dict[str, Any]],
                   result: Dict[str, Any]) -> None:
    print(f"  {title}")
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        print(f"    {entry['name']:<42} {metric['value']:>16.6g} {metric['unit']}")


def _print_layers(detail: Dict[str, Any]) -> None:
    """Shares of traced self time, largest first, and the top three."""
    seconds = detail["layer_self_s"]
    total = sum(seconds.values()) or 1.0
    ranked = sorted(seconds.items(), key=lambda item: -item[1])
    print("  traced self time by layer")
    for layer, value in ranked:
        if value > 0:
            print(f"      {layer:<16} {100 * value / total:5.1f} %")
    top = [layer for layer, _ in ranked if layer in LAYER_NAMES[:-1]][:3]
    print(f"  top three layers: {', '.join(top)}")
    print(f"  other + unmapped share of in-repo self time: "
          f"{100 * detail['unattributed_share']:.2f} %")


def _environment() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def _short_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() \
        else "nogit"


def _summaries(detail: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Median, quartiles and sample count of the per-cell timed values."""
    out = {}
    for key in ("setup_s", "wall_s", "deliveries_per_s", "latency_p50_ms",
                "latency_p99_ms"):
        values = [cell[key] for cell in detail["cells"]]
        quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                     else [values[0]] * 3)
        out[key] = {"n": len(values), "median": statistics.median(values),
                    "q1": quartiles[0], "q3": quartiles[2]}
    return out


def full_run(seed: int, seconds: float, quick: bool) -> int:
    """Every workload, untraced then traced; returns the exit status."""
    declaration = load_declaration()
    status = 0
    record: Dict[str, Any] = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "commit": _short_sha(), "environment": _environment(), "seed": seed,
        "run_seconds": seconds, "workloads": {}}
    for entry in declaration["workloads"]:
        name = entry["name"]
        print(f"== {name} (seed {seed}) ==")
        print(f"  why: {entry['why']}")
        timed_detail, timed, code = _run_child(name, seed, seconds, 0, quick)
        status |= code
        _print_metrics("end-to-end (untraced)", declaration["end_to_end"], timed)
        print(f"    operations: {timed['attempted']} attempted, "
              f"{timed['failed']} failed; latency over "
              f"{timed_detail['latency_samples']} samples per cycle")
        traced_detail, traced, code = _run_child(name, seed, seconds, 1, quick)
        status |= code
        _print_metrics("per-layer (traced cycle, counters, drivers)",
                       declaration["per_layer"], traced)
        _print_layers(traced_detail)
        for detail in (timed_detail, traced_detail):
            for problem in detail["problems"]:
                print(f"  INCORRECT: {problem}")
        record["workloads"][name] = {
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"], "failed": timed["failed"],
            "end_to_end": timed["metrics"], "per_layer": traced["metrics"],
            "per_cell": _summaries(timed_detail), "cells": timed_detail["cells"],
            "layer_self_s": traced_detail["layer_self_s"],
            "unattributed_share": traced_detail["unattributed_share"]}
        print()
    if not quick:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{datetime.date.today().isoformat()}-{record['commit']}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    print("all workloads correct" if status == 0 else "SOME WORKLOAD WAS INCORRECT")
    return status


def agree(seed: int, seconds: float, quick: bool) -> int:
    """Two sets of end-to-end runs of the same code, against the bounds.

    Simulated cells must agree exactly (signatures cover deliveries,
    event counts and counters); every end-to-end metric's second value
    may be worse than the first by at most its declared bound.
    """
    declaration = load_declaration()
    status = 0
    for entry in declaration["workloads"]:
        name = entry["name"]
        runs = []
        for _ in range(2):
            detail, result, code = _run_child(name, seed, seconds, 0, quick)
            status |= code
            runs.append((detail, result))
        print(f"== {name} ==")
        (first_detail, first), (second_detail, second) = runs
        first_signatures = {(c["cell"], c["signature"]) for c in first_detail["cells"]}
        second_signatures = {(c["cell"], c["signature"]) for c in second_detail["cells"]}
        if first_signatures != second_signatures:
            print("  BREACH: simulated cells differ between the two sets")
            status = 1
        for metric in declaration["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            breach = worse > metric["bound"]
            status |= int(breach)
            print(f"    {metric['name']:<20} {a:>14.6g} {b:>14.6g} {metric['unit']:<5}"
                  f" worse by {100 * worse:+6.2f} % (bound {100 * metric['bound']:.0f} %)"
                  f"{'  BREACH' if breach else ''}")
    print("the two sets agree" if status == 0 else "THE TWO SETS DISAGREE")
    return status


def trend() -> int:
    """The end-to-end table across the committed result files."""
    declaration = load_declaration()
    files = sorted(RESULTS.glob("*.json"))
    if not files:
        print("no result files under bench/results")
        return 1
    records = [(path.stem, json.loads(path.read_text(encoding="utf-8")))
               for path in files]
    for entry in declaration["workloads"]:
        print(f"== {entry['name']} ==")
        print(f"    {'metric':<20} {'unit':<6}"
              + "".join(f"{stem:>22}" for stem, _ in records))
        for metric in declaration["end_to_end"]:
            cells = []
            for _, record in records:
                value: Optional[Dict[str, Any]] = (
                    record["workloads"].get(entry["name"], {})
                    .get("end_to_end", {}).get(metric["name"]))
                cells.append(f"{value['value']:>22.6g}" if value else f"{'-':>22}")
            print(f"    {metric['name']:<20} {metric['unit']:<6}" + "".join(cells))
    return 0
