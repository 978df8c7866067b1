"""repro — Reliable Broadcast in Networks with Nonprogrammable Servers.

A complete reproduction of Garcia-Molina, Kogan & Lynch (ICDCS 1988):
the cluster-tree reliable broadcast protocol, the nonprogrammable-server
network substrate it runs on, the paper's "basic algorithm" baseline,
and a benchmark harness for every claim in the paper's evaluation.

Quickstart::

    from repro import Simulator, wan_of_lans, BroadcastSystem

    sim = Simulator(seed=42)
    topo = wan_of_lans(sim, clusters=3, hosts_per_cluster=3)
    system = BroadcastSystem(topo).start()
    system.broadcast_stream(count=10, interval=1.0, start_at=5.0)
    system.run_until_delivered(10, timeout=120.0)

Layers (each its own subpackage):

* :mod:`repro.sim` — deterministic discrete-event kernel
* :mod:`repro.net` — servers, links, routing, failures, topologies
* :mod:`repro.core` — the paper's protocol (the contribution)
* :mod:`repro.io` — sans-IO seam: Runtime/Transport contracts, the
  sim adapters, and the real asyncio/UDP backend
* :mod:`repro.baseline` — the basic algorithm and epidemic gossip
* :mod:`repro.analysis` — cost/delay/reliability measurement
* :mod:`repro.verify` — invariant oracles
* :mod:`repro.scenarios` — the paper's figures as topologies
* :mod:`repro.experiments` — runners for experiments E1..E25 and their claims
"""

from .baseline import (
    BasicBroadcastSystem,
    BasicConfig,
    EpidemicBroadcastSystem,
    EpidemicConfig,
)
from .core import (
    BroadcastHost,
    BroadcastSystem,
    ClusterMode,
    ProtocolConfig,
    SeqnoSet,
    SourceHost,
)
from .net import (
    BuiltTopology,
    HostId,
    LinkSpec,
    Network,
    cheap_spec,
    expensive_spec,
    line_topology,
    random_topology,
    star_topology,
    wan_of_lans,
)
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "BasicBroadcastSystem",
    "BasicConfig",
    "BroadcastHost",
    "BroadcastSystem",
    "BuiltTopology",
    "ClusterMode",
    "EpidemicBroadcastSystem",
    "EpidemicConfig",
    "HostId",
    "LinkSpec",
    "Network",
    "ProtocolConfig",
    "SeqnoSet",
    "Simulator",
    "SourceHost",
    "__version__",
    "cheap_spec",
    "expensive_spec",
    "line_topology",
    "random_topology",
    "star_topology",
    "wan_of_lans",
]
