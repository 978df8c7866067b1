"""Pin of the simulated network's observable surface.

``tests/io/pinned_signatures.json`` pins what hosts *deliver*; this pins
what the network itself does to every packet: one seeded scenario over
a four-server line with one expensive trunk, loss, duplication, reorder
jitter, a drop-tail overflow, a link that fails with packets in flight
and comes back, and a whole-server outage.  The pin holds

* a digest of every arrival at a host: (time, packet id relative to the
  scenario's first, hops, cost bit, ttl);
* ``sim.metrics.counters()``;
* ``queue_peak`` / ``overflow_count`` of every link direction;
* ``sim.events_executed``.

A change to the hop path that is meant to be behaviour-neutral keeps
this green.  ``python -m tests.net.test_network_pin`` regenerates the
pin; only do that for a change that *intends* to alter what the network
does, and say why in the change log.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Any, Dict, List

from repro.net import (
    HostId,
    Network,
    RawPayload,
    cheap_spec,
    expensive_spec,
    make_packet,
)
from repro.sim import Simulator

PIN_FILE = pathlib.Path(__file__).parents[1] / "io" / "pinned_network.json"

_HOSTS = {"h0": "s0", "h1": "s0", "h2": "s1", "h3": "s3"}


def run_scenario(seed: int = 29) -> Dict[str, Any]:
    """Run the pinned scenario and return its observable summary."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    for name in ("s0", "s1", "s2", "s3"):
        network.add_server(name)
    network.connect("s0", "s1", cheap_spec(loss_prob=0.05, reorder_jitter=0.004))
    # The expensive trunk: 56 kbit/s, a three-packet buffer, duplicates.
    network.connect("s1", "s2", expensive_spec(queue_limit=3, dup_prob=0.1))
    network.connect("s2", "s3", cheap_spec(dup_prob=0.05, reorder_jitter=0.002))
    for host, server in _HOSTS.items():
        spec = cheap_spec(reorder_jitter=0.001) if host == "h1" else None
        network.add_host(HostId(host), server, spec)
    network.use_global_routing(convergence_delay=0.3)

    base = make_packet(HostId("h0"), HostId("h1")).packet_id
    arrivals: List[list] = []
    for host in _HOSTS:
        def record(packet, sim=sim):
            arrivals.append([repr(sim.now), packet.packet_id - base,
                             [str(hop) for hop in packet.hops],
                             packet.cost_bit, packet.ttl])
        network.host_port(HostId(host)).set_receiver(record)

    draw = random.Random(seed)
    names = sorted(_HOSTS)
    for _ in range(300):
        src, dst = draw.sample(names, 2)
        at = round(draw.uniform(1.0, 30.0), 3)
        payload = (RawPayload(kind="data", size_bits=8_000) if draw.random() < 0.4
                   else RawPayload(kind="control", size_bits=800))
        sim.schedule_at(at, network.host_port(HostId(src)).send, HostId(dst),
                        payload)
    # A burst across the expensive trunk overflows its drop-tail buffer.
    for _ in range(12):
        sim.schedule_at(5.0, network.host_port(HostId("h0")).send, HostId("h3"),
                        RawPayload(kind="data", size_bits=8_000))
    # A trunk fails with packets in flight and is repaired.
    sim.schedule_at(5.07, network.set_link_state, "s1", "s2", False)
    sim.schedule_at(5.9, network.set_link_state, "s1", "s2", True)
    # An access link fails under the routing engine's feet (no reroute)
    # with a packet in flight in each direction.
    sim.schedule_at(11.998, network.host_port(HostId("h0")).send, HostId("h1"),
                    RawPayload(kind="control", size_bits=800))
    sim.schedule_at(12.0, network.host_port(HostId("h1")).send, HostId("h0"),
                    RawPayload(kind="control", size_bits=800))
    sim.schedule_at(12.002, network.link("h1", "s0").set_down)
    sim.schedule_at(12.4, network.link("h1", "s0").set_up)
    # A whole server goes down and comes back.
    sim.schedule_at(18.0, network.set_server_state, "s2", False)
    sim.schedule_at(21.0, network.set_server_state, "s2", True)
    sim.run(until=40.0)

    digest = hashlib.sha256(
        json.dumps(arrivals, separators=(",", ":")).encode()).hexdigest()
    queues = {
        f"{link.link_id}|{node}": [link.queue_peak(node), link.overflow_count(node)]
        for link in sorted(network.links.values(), key=lambda l: str(l.link_id))
        for node in (link.link_id.a, link.link_id.b)
    }
    return {
        "arrivals": len(arrivals),
        "arrival_digest": digest,
        "counters": sim.metrics.counters(),
        "queues": queues,
        "events_executed": sim.events_executed,
    }


def _pinned() -> Dict[str, Any]:
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


def test_scenario_exercises_every_fault():
    counters = run_scenario()["counters"]
    for name in ("net.drop.loss", "net.drop.overflow", "net.drop.down",
                 "net.dup", "net.link_tx.expensive"):
        assert counters.get(name, 0) > 0, name


def test_arrivals_pinned():
    got, pin = run_scenario(), _pinned()
    assert (got["arrivals"], got["arrival_digest"]) == (
        pin["arrivals"], pin["arrival_digest"])


def test_counters_pinned():
    assert run_scenario()["counters"] == _pinned()["counters"]


def test_queue_peaks_and_overflows_pinned():
    assert run_scenario()["queues"] == _pinned()["queues"]


def test_events_executed_pinned():
    assert run_scenario()["events_executed"] == _pinned()["events_executed"]


if __name__ == "__main__":  # pragma: no cover - pin regeneration tool
    PIN_FILE.write_text(json.dumps(run_scenario(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {PIN_FILE}")
