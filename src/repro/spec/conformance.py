"""Trace conformance: replay a concrete run against the abstract model.

A deployment's structured trace records every externally visible
protocol event, on either backend.  :func:`check_conformance` maps
those records to the abstract actions of
:class:`repro.spec.model.BroadcastSpec`, replays them in timestamp
order, and reports every safety violation — a machine-checked bridge
between the implementation and the paper's Section 4 rules.

Event mapping:

==================  =============================================
trace kind          abstract action
==================  =============================================
source.broadcast    Broadcast(seq)
host.deliver        Deliver(host, seq, sender)
host.attach_ok      Attach(host, parent)
host.detach         Detach(host)
host.parent_timeout Detach(host)
==================  =============================================

Tracing must be enabled for the run being checked (it is by default).
Only rows of these kinds become records: the replay reads the trace
through :meth:`~repro.sim.trace.Tracer.records`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..io.interfaces import Deployment
from ..net import HostId
from ..sim import Simulator, TraceRecord, Tracer
from .model import Attach, Broadcast, BroadcastSpec, Deliver, Detach

#: trace kinds the checker consumes, in one pass
_RELEVANT = ("source.broadcast", "host.deliver", "host.attach_ok",
             "host.detach", "host.parent_timeout")


@dataclass
class ConformanceReport:
    """Everything the checker found."""

    actions_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not self.violations

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return f"<ConformanceReport {self.actions_checked} actions, {status}>"


def _to_action(record: TraceRecord):
    if record.kind == "source.broadcast":
        return Broadcast(seq=record["seq"])
    if record.kind == "host.deliver":
        return Deliver(host=HostId(record.source), seq=record["seq"],
                       sender=HostId(record["sender"]))
    if record.kind == "host.attach_ok":
        return Attach(host=HostId(record.source),
                      parent=HostId(record["parent"]))
    if record.kind in ("host.detach", "host.parent_timeout"):
        return Detach(host=HostId(record.source))
    return None


def _replay(trace: Tracer, source: HostId, hosts: Sequence[HostId],
            expect_complete: bool) -> Tuple[ConformanceReport, BroadcastSpec]:
    spec = BroadcastSpec(source=source, hosts=hosts)
    report = ConformanceReport()
    relevant = trace.records(kind=_RELEVANT)
    relevant.sort(key=lambda r: r.time)
    for record in relevant:
        action = _to_action(record)
        if action is None:  # a longer kind that shares a relevant prefix
            continue
        report.actions_checked += 1
        violation = spec.apply(action)
        if violation is not None:
            report.violations.append(f"t={record.time:.3f}: {violation}")
    report.violations.extend(spec.final_check(expect_complete=expect_complete))
    return report, spec


def check_trace(
    sim: Simulator,
    source: HostId,
    hosts: Sequence[HostId],
    expect_complete: bool = False,
) -> ConformanceReport:
    """Replay a simulator's trace against the abstract specification."""
    return _replay(sim.trace, source, hosts, expect_complete)[0]


def check_refinement(system: Deployment,
                     spec: BroadcastSpec) -> List[str]:
    """State correspondence: the concrete hosts must match the abstract
    state reached by replaying the trace.

    This is the refinement half of a simulation-relation argument: the
    trace replay establishes that every step was *allowed*; this check
    establishes that the implementation's final state is the one the
    abstract machine computes from those steps.
    """
    violations = []
    for host_id, host in system.hosts.items():
        concrete_info = set(host.info)
        abstract_info = spec.state.info.get(host_id, set())
        if concrete_info != abstract_info:
            missing = sorted(abstract_info - concrete_info)
            extra = sorted(concrete_info - abstract_info)
            violations.append(
                f"{host_id} INFO diverges from the abstract state "
                f"(missing {missing}, extra {extra})")
        if host_id != system.source_id:
            abstract_parent = spec.state.parent.get(host_id)
            if host.parent != abstract_parent:
                violations.append(
                    f"{host_id} parent is {host.parent} but the abstract "
                    f"state says {abstract_parent}")
    return violations


def check_conformance(system: Deployment,
                      expect_complete: bool = False) -> ConformanceReport:
    """Check a tree deployment's whole run: trace safety + refinement.

    Works on either backend: the hosts are the deployment's, and the
    trace is its runtime's ``trace_sink``.
    """
    report, spec = _replay(system.runtime.trace_sink, system.source_id,
                           list(system.hosts), expect_complete)
    report.violations.extend(check_refinement(system, spec))
    return report
