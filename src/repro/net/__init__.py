"""Network substrate: nonprogrammable servers, links, routing, failures.

This package simulates the environment of the paper's Section 2: hosts
attached to point-to-point communication servers that offer exactly one
service (unicast to a single destination), links divided into *cheap*
and *expensive* bandwidth classes, a cost bit stamped on packets that
traverse expensive links, arbitrary undetected loss/duplication/
reordering, and adaptive routing that restores transitivity after
failures.
"""

from .addressing import HostId, LinkId, ServerId, host_id, server_id
from .failures import (
    FailureSchedule,
    LinkFlapper,
    LinkStateChange,
    PartitionScheduler,
    ServerOutageSchedule,
    cut_links_between,
    host_group,
)
from .generator import (
    BuiltTopology,
    hierarchical_wan,
    line_topology,
    random_topology,
    star_topology,
    wan_of_lans,
)
from .hostiface import HostPort
from .link import (
    BandwidthClass,
    Link,
    LinkSpec,
    cheap_spec,
    expensive_spec,
    link_pressure,
)
from .message import DEFAULT_SIZE_BITS, DEFAULT_TTL, Packet, Payload, RawPayload, TuplePayload, make_packet
from .pathdiag import RouteTrace, routes_overview, trace_route
from .routing import (
    GlobalRoutingEngine,
    RoutingEngine,
    cheap_first_metric,
    hop_metric,
    latency_metric,
)
from .clocks import ClockModel, ClockSpec
from .crosstraffic import CrossTrafficGenerator, CrossTrafficSpec
from .distvec import DistanceVectorEngine, RouteEntry
from .server import Server
from .topology import Network

__all__ = [
    "BandwidthClass",
    "BuiltTopology",
    "ClockModel",
    "ClockSpec",
    "CrossTrafficGenerator",
    "CrossTrafficSpec",
    "DEFAULT_SIZE_BITS",
    "DEFAULT_TTL",
    "DistanceVectorEngine",
    "FailureSchedule",
    "GlobalRoutingEngine",
    "HostId",
    "HostPort",
    "Link",
    "LinkFlapper",
    "LinkId",
    "LinkSpec",
    "LinkStateChange",
    "Network",
    "Packet",
    "PartitionScheduler",
    "Payload",
    "RawPayload",
    "RouteEntry",
    "RouteTrace",
    "RoutingEngine",
    "Server",
    "ServerId",
    "ServerOutageSchedule",
    "TuplePayload",
    "cheap_first_metric",
    "cheap_spec",
    "cut_links_between",
    "expensive_spec",
    "hop_metric",
    "host_id",
    "hierarchical_wan",
    "host_group",
    "latency_metric",
    "line_topology",
    "link_pressure",
    "make_packet",
    "random_topology",
    "server_id",
    "routes_overview",
    "star_topology",
    "trace_route",
    "wan_of_lans",
]
