"""The single module -> layer map used for cost attribution.

Every ``src/repro/**/*.py`` module belongs to exactly one layer below or
matches one entry of :data:`OTHER` (code no workload is meant to reach).
``bench/tests/test_layers.py`` enforces that, so a new module cannot
silently vanish from the traced attribution.

Paths are relative to ``src/repro``.  ``python`` (stdlib and builtins)
and ``bench`` (this harness's own callbacks) are not listed: they are
whatever is not under ``src/repro``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("sim/__init__.py", "sim/kernel.py", "sim/event.py",
                   "sim/process.py", "sim/rng.py", "sim/errors.py"),
    "sim.trace": ("sim/trace.py",),
    "sim.metrics": ("sim/metrics.py",),
    "net.link": ("net/link.py",),
    "net.server": ("net/__init__.py", "net/server.py", "net/routing.py",
                   "net/topology.py", "net/distvec.py", "net/generator.py",
                   "net/clocks.py", "net/pathdiag.py", "net/crosstraffic.py"),
    "net.hostiface": ("net/hostiface.py", "net/message.py",
                      "net/addressing.py"),
    "core.host": ("core/__init__.py", "core/host.py", "core/source.py",
                  "core/cluster.py", "core/engine.py", "core/config.py",
                  "core/costinfer.py", "core/ordering.py"),
    "core.delivery": ("core/delivery.py",),
    "core.attachment": ("core/attachment.py",),
    "core.seqnoset": ("core/seqnoset.py",),
    "core.mapstate": ("core/mapstate.py",),
    "core.wire": ("core/wire.py",),
    "core.rtt": ("core/rtt.py",),
    "core.resources": ("core/resources.py",),
    "baseline.basic": ("baseline/__init__.py", "baseline/basic.py",
                       "baseline/common.py"),
    "io.simbackend": ("io/__init__.py", "io/simbackend.py",
                      "io/interfaces.py"),
    "io.aio": ("io/aio.py",),
    "io.udp": ("io/udp.py", "io/node.py"),
    # net/failures.py and scenarios/partitions.py are the link-level
    # injectors ChaosPlan drives; they only ever run under a chaos plan.
    "chaos": ("chaos/__init__.py", "chaos/plan.py", "chaos/hosts.py",
              "chaos/packets.py", "chaos/nemesis.py", "chaos/adversary.py",
              "net/failures.py", "scenarios/partitions.py"),
    "verify.monitor": ("verify/__init__.py", "verify/monitor.py",
                       "verify/invariants.py"),
}

#: modules no workload should execute; a trailing "/" matches a package
OTHER: Tuple[str, ...] = (
    "__init__.py", "__main__.py", "cli.py",
    "analysis/", "exec/", "experiments/", "fuzz/", "perf/", "spec/",
    "scenarios/__init__.py", "scenarios/figures.py", "scenarios/loadshift.py",
    "baseline/epidemic.py", "core/multisource.py", "core/piggyback.py",
    "io/crosscheck.py",
    "verify/containment.py", "verify/liveness.py", "verify/oracle.py",
    "verify/overload.py",
)

#: layer names in report order, plus the two that are not under src/repro
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + ("python",)

_BY_MODULE: Dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules}


def layer_of_module(rel_path: str) -> Optional[str]:
    """Layer of a module path relative to ``src/repro``.

    Returns ``"other"`` for :data:`OTHER` entries and ``None`` for a
    module the map does not know (the completeness test fails on those).
    """
    layer = _BY_MODULE.get(rel_path)
    if layer is not None:
        return layer
    for entry in OTHER:
        if rel_path == entry or (entry.endswith("/")
                                 and rel_path.startswith(entry)):
            return "other"
    return None
