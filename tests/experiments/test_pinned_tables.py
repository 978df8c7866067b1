"""Table pins: every deterministic E-series table, hashed.

Each registered experiment except E22 (whose wall-clock columns depend
on the machine) is run once and its result is reduced to the SHA-256 of
``json.dumps(result.as_dict(), sort_keys=True)``.  The digest covers
every row, column, title and note, so any change to what a runner
builds, drives or reports moves it.  A refactor of the experiment
harness must leave every digest where it is.

Runs that take well under half a second use the runner's defaults;
the slower ones run with the reduced parameters in :data:`OVERRIDES`,
chosen so each still exercises every protocol and code path of its
runner.

``pinned_tables.json`` is regenerated with
``PYTHONPATH=src python -m tests.experiments.test_pinned_tables``; only
do that for a change that *intends* to alter a table, and say which
tables moved and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.experiments import REGISTRY, get_spec
from repro.experiments.runners import E21_POINTS

PIN_FILE = pathlib.Path(__file__).with_name("pinned_tables.json")

#: reduced parameters for the experiments that are slow at their defaults
OVERRIDES = {
    "E1": dict(ks=(2, 3), ms=(1, 2), n=6, warmup=2),
    "E2": dict(ks=(2, 3), ms=(2,), n=6, warmup=2),
    "E3": dict(losses=(0.05, 0.2)),
    "E5": dict(ms=(2, 4)),
    "E6": dict(stream_sizes=(0, 50), horizon=80.0),
    "E6b": dict(factors=(0.5, 2.0), horizon=80.0),
    "E7": dict(factors=(0.5, 2.0), trials=2),
    "E17": dict(k=2, m=2, n=10, partition=(5.0, 20.0), horizon=200.0),
    "E18": dict(factors=(1.0,), trials=2),
    "E19": dict(shapes=((2, 2, 2), (3, 3, 1))),
    "E21": dict(n=15, points=(E21_POINTS[0], E21_POINTS[-1])),
    "E23": dict(trials=4),
    "E24": dict(n=6, ks=(0, 1), personas=("stale_info", "ack_no_deliver")),
    "E25": dict(utilizations=(0.4, 3.0), shapes=("bursty",), duration=10.0,
                drain=30.0, probe_n=20),
}

#: every registered experiment whose table is deterministic
PINNED = [exp_id for exp_id in REGISTRY if exp_id != "E22"]


def table_digest(exp_id: str) -> str:
    result = get_spec(exp_id).run(**OVERRIDES.get(exp_id, {}))
    blob = json.dumps(result.as_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load_pins() -> dict:
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


def test_pins_cover_every_deterministic_experiment():
    assert sorted(_load_pins()) == sorted(PINNED)


@pytest.mark.parametrize("exp_id", PINNED)
def test_table_pinned(exp_id):
    assert table_digest(exp_id) == _load_pins()[exp_id]


if __name__ == "__main__":  # pragma: no cover - pin regeneration tool
    pins = {exp_id: table_digest(exp_id) for exp_id in PINNED}
    PIN_FILE.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PIN_FILE}")
    for exp_id, value in pins.items():
        print(f"  {exp_id}: {value}")
