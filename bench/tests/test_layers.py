"""The module -> layer map must cover ``src/repro`` exactly."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench.layers import LAYERS, OTHER, layer_of_module  # noqa: E402

SRC = ROOT / "src" / "repro"
MODULES = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))


def test_every_module_has_a_layer_or_is_listed_as_other():
    unmapped = [module for module in MODULES if layer_of_module(module) is None]
    assert not unmapped, f"add these to bench/layers.py: {unmapped}"


def test_no_module_is_claimed_twice():
    claimed = [module for modules in LAYERS.values() for module in modules]
    assert len(claimed) == len(set(claimed))
    for module in claimed:
        assert not any(module == entry or (entry.endswith("/")
                                           and module.startswith(entry))
                       for entry in OTHER), module


def test_the_map_names_no_module_that_is_gone():
    for module in (m for modules in LAYERS.values() for m in modules):
        assert module in MODULES, module
    for entry in OTHER:
        assert any(module == entry or (entry.endswith("/")
                                       and module.startswith(entry))
                   for module in MODULES), entry
