"""Structural conformance: every backend satisfies the two contracts."""

import pytest

from repro.core.multisource import PortMux
from repro.core.piggyback import PiggybackPort
from repro.io import (
    AsyncioRuntime,
    Runtime,
    SimRuntime,
    Transport,
    UdpTransport,
    as_runtime,
)
from repro.net import HostId, wan_of_lans
from repro.sim import Simulator


def built_network(seed=0):
    sim = Simulator(seed=seed)
    return sim, wan_of_lans(sim, clusters=1, hosts_per_cluster=3)


class TestRuntimeConformance:
    def test_sim_runtime_is_a_runtime(self):
        assert isinstance(SimRuntime(Simulator(seed=0)), Runtime)

    def test_asyncio_runtime_is_a_runtime(self):
        assert isinstance(AsyncioRuntime(seed=0), Runtime)

    def test_bare_simulator_is_not_a_runtime(self):
        # The whole point of the adapter: the kernel itself stays
        # ignorant of the protocol-facing contract.
        assert not isinstance(Simulator(seed=0), Runtime)


class TestTransportConformance:
    def test_host_port_conforms_natively(self):
        sim, built = built_network()
        port = built.network.host_port(HostId("h0.0"))
        assert isinstance(port, Transport)

    def test_piggyback_port_conforms(self):
        sim, built = built_network()
        port = PiggybackPort(built.network.host_port(HostId("h0.0")))
        assert isinstance(port, Transport)

    def test_virtual_port_conforms(self):
        sim, built = built_network()
        mux = PortMux(built.network.host_port(HostId("h0.0")))
        assert isinstance(mux.port_for("inst"), Transport)

    def test_udp_transport_conforms(self):
        transport = UdpTransport(AsyncioRuntime(seed=0), HostId("a"),
                                 peers={})
        assert isinstance(transport, Transport)


class TestAsRuntime:
    def test_runtime_passes_through_untouched(self):
        runtime = SimRuntime(Simulator(seed=0))
        assert as_runtime(runtime) is runtime

    def test_asyncio_runtime_passes_through(self):
        runtime = AsyncioRuntime(seed=0)
        assert as_runtime(runtime) is runtime

    def test_simulator_gets_wrapped(self):
        sim = Simulator(seed=0)
        runtime = as_runtime(sim)
        assert isinstance(runtime, SimRuntime)
        assert runtime.sim is sim

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError, match="Runtime or Simulator"):
            as_runtime(object())
