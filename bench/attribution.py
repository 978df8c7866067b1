"""Traced-run attribution: bucket ``cProfile`` records into layers.

The traced cycle of a workload runs its measured phases under a
``cProfile.Profile`` owned by the benchmark.  Each Python function is
assigned to the layer of its source file (:mod:`bench.layers`); a
layer's *self time* is the sum, over its functions, of the time spent in
the function minus the time spent in the Python functions it called.
C builtins (``heapq.heappush``, ``pickle.dumps``, ``socket.sendto`` ...)
are not layers: their time stays with the function that called them,
which is where an optimisation would have to happen.  The one exception
is the event loop's ``epoll.poll``: on the UDP workload that is idle
waiting for the kernel, and it is excluded altogether.

Call counts are counts of Python function calls into a layer; on the
simulator they repeat exactly.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, Tuple

from .layers import layer_of_module

_IDLE_BUILTINS = ("<method 'poll' of 'select.epoll' objects>",
                  "<method 'poll' of 'select.poll' objects>",
                  "<built-in method select.select>")


def _roots() -> Tuple[str, str]:
    import repro

    src = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    bench = os.path.dirname(os.path.abspath(__file__)) + os.sep
    return src, bench


def layer_of_file(filename: str, roots: Tuple[str, str]) -> str:
    """Layer of a source file: a ``src/repro`` layer, ``other``,
    ``unmapped``, ``bench`` or ``python``."""
    src, bench = roots
    path = os.path.abspath(filename) if not filename.startswith("<") else filename
    if path.startswith(src):
        rel = path[len(src):].replace(os.sep, "/")
        return layer_of_module(rel) or "unmapped"
    if path.startswith(bench):
        return "bench"
    return "python"


def layer_costs(profiler: cProfile.Profile) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, Python calls)}`` of everything profiled."""
    roots = _roots()
    cache: Dict[str, str] = {}
    costs: Dict[str, Tuple[float, int]] = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # a builtin: charged to its callers below
        layer = cache.get(code.co_filename)
        if layer is None:
            layer = cache[code.co_filename] = layer_of_file(code.co_filename,
                                                            roots)
        self_s = entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str) and callee.code not in _IDLE_BUILTINS:
                self_s += callee.inlinetime
        seconds, calls = costs.get(layer, (0.0, 0))
        costs[layer] = (seconds + self_s, calls + entry.callcount)
    return costs
