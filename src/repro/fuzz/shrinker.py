"""Fault-schedule shrinking: delta-debug a failure to a minimal repro.

A raw failing trial carries a dozen fault events, a multi-cluster
topology, and a long workload; most of it is noise.  :func:`shrink_trial`
minimizes the trial while **preserving the violation**: a candidate is
accepted only when re-running it reproduces the original failure class
(``stable_violation`` or ``no_eventual_delivery``).  Passes, in order:

1. **ddmin over fault events** — the flattened fault-event list (every
   outage, partition, packet rule, churn entry, and adversary persona
   across all nine ``ChaosSpec`` fields) is reduced with classic delta
   debugging, including the try-zero-events probe that exposes
   chaos-independent bugs.  Adversary-caused failures thereby shrink to
   the minimal adversary event sequence: benign faults that merely rode
   along are deleted first, leaving the persona schedule that actually
   breaks the invariant.
2. **Window shortening** — surviving outage/partition/packet windows
   are repeatedly halved while the failure persists.
3. **Workload shrinking** — the stream length is halved toward 1.
4. **Topology shrinking** — hosts-per-cluster, then cluster count, are
   reduced; fault events naming nodes or links that no longer exist are
   dropped (the re-run then revalidates that the *remaining* schedule
   still fails).
5. **Horizon tightening** — ``heal_by`` is pulled down to just past the
   last surviving fault.

Shrinking invariants (DESIGN.md §11): every candidate is a valid
:class:`TrialSpec` — windows still end before ``heal_by``, so shrunk
repros keep the heal-by guarantee — and the whole search is a pure
function of the input (fixed pass order, no randomness), so shrinking
the same failure twice yields the identical minimal repro.  The search
is budgeted: at most ``max_evals`` trial re-runs, each a full
deterministic simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..chaos import ChaosSpec
from .generator import TopologySpec, TrialSpec, WorkloadSpec, topology_names
from .properties import TrialOutcome, run_trial

#: the ChaosSpec fields that hold discrete fault events, in canonical order
EVENT_FIELDS: Tuple[str, ...] = (
    "host_outages", "link_outages", "server_outages", "partitions",
    "window_partitions", "host_churn", "link_churn", "packet_faults",
    "adversaries",
)

#: one flattened fault event: (chaos field name, event value)
Event = Tuple[str, object]


def fault_events(chaos: ChaosSpec) -> List[Event]:
    """Flatten a spec's fault schedule into one canonical event list."""
    return [(name, event) for name in EVENT_FIELDS
            for event in getattr(chaos, name)]


def fault_event_count(chaos: ChaosSpec) -> int:
    return sum(len(getattr(chaos, name)) for name in EVENT_FIELDS)


def rebuild_chaos(chaos: ChaosSpec, events: List[Event],
                  heal_by: Optional[float] = None) -> ChaosSpec:
    """A copy of ``chaos`` holding exactly ``events`` (may raise ValueError)."""
    grouped = {name: [] for name in EVENT_FIELDS}
    for name, event in events:
        grouped[name].append(event)
    return dataclasses.replace(
        chaos, heal_by=heal_by if heal_by is not None else chaos.heal_by,
        **{name: tuple(values) for name, values in grouped.items()})


@dataclass
class ShrinkResult:
    """The minimal reproducer and how we got there."""

    spec: TrialSpec
    outcome: TrialOutcome
    original_events: int
    events: int
    evals: int

    @property
    def ratio(self) -> float:
        """Shrunk / original fault-event count (1.0 = no shrinking)."""
        if self.original_events == 0:
            return 1.0
        return self.events / self.original_events


class _Budget:
    """Counts trial evaluations; the search stops when exhausted."""

    def __init__(self, max_evals: int) -> None:
        self.max_evals = max_evals
        self.evals = 0

    @property
    def exhausted(self) -> bool:
        return self.evals >= self.max_evals


def _chunks(items: List, n: int) -> List[List]:
    """Split into n near-equal chunks (n <= len(items))."""
    size, extra = divmod(len(items), n)
    out, at = [], 0
    for i in range(n):
        width = size + (1 if i < extra else 0)
        out.append(items[at:at + width])
        at += width
    return [c for c in out if c]


def _ddmin(events: List[Event], test: Callable[[List[Event]], bool],
           budget: _Budget) -> List[Event]:
    """Classic ddmin: find a (1-)minimal failing subset of ``events``."""
    if not events or budget.exhausted:
        return events
    if test([]):  # the failure does not need chaos at all
        return []
    granularity = 2
    while len(events) >= 2 and not budget.exhausted:
        chunks = _chunks(events, min(granularity, len(events)))
        reduced = False
        for i in range(len(chunks)):
            candidate = [e for j, chunk in enumerate(chunks)
                         for e in chunk if j != i]
            if test(candidate):
                events = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            if budget.exhausted:
                return events
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return events


def _halved_window(event: object) -> Optional[object]:
    """The same event with its time window halved, or None if minimal."""
    start = getattr(event, "start", None)
    end = getattr(event, "end", None)
    if start is None or end is None or end == float("inf"):
        return None
    duration = end - start
    if duration <= 1.0:
        return None
    return dataclasses.replace(event, end=round(start + duration / 2, 6))


def _valid_events(events: List[Event], topology: TopologySpec,
                  seed: int) -> List[Event]:
    """Drop events that reference nodes absent from ``topology``."""
    names = topology_names(topology, seed)
    nodes = {names.source, *names.victims, *names.servers}
    links = {frozenset(link) for link in names.links}
    kept: List[Event] = []
    for field_name, event in events:
        if field_name == "host_outages":
            if event.host in names.victims:
                kept.append((field_name, event))
        elif field_name == "link_outages":
            if frozenset((event.a, event.b)) in links:
                kept.append((field_name, event))
        elif field_name == "server_outages":
            if event.server in names.servers:
                kept.append((field_name, event))
        elif field_name in ("partitions", "window_partitions"):
            groups = tuple(tuple(n for n in group if n in nodes)
                           for group in event.groups)
            groups = tuple(g for g in groups if g)
            if len(groups) >= 2:
                kept.append((field_name,
                             dataclasses.replace(event, groups=groups)))
        elif field_name == "host_churn":
            hosts = tuple(h for h in event.hosts if h in names.victims)
            if hosts:
                kept.append((field_name,
                             dataclasses.replace(event, hosts=hosts)))
        elif field_name == "link_churn":
            churned = tuple(link for link in event.links
                            if frozenset(link) in links)
            if churned:
                kept.append((field_name,
                             dataclasses.replace(event, links=churned)))
        elif field_name == "adversaries":
            if event.host in names.victims:
                kept.append((field_name, event))
        else:  # packet_faults
            if ((event.dst == "*" or event.dst in names.victims
                 or event.dst == names.source)
                    and (event.src == "*" or event.src in nodes)):
                kept.append((field_name, event))
    return kept


def shrink_trial(spec: TrialSpec, outcome: TrialOutcome,
                 max_evals: int = 150) -> ShrinkResult:
    """Minimize ``spec`` while preserving ``outcome``'s failure class."""
    if not outcome.failed:
        raise ValueError("can only shrink a failing trial "
                         f"(got {outcome.classification!r})")
    target = outcome.classification
    budget = _Budget(max_evals)
    best_spec = spec
    best_outcome = outcome
    original_events = fault_event_count(spec.chaos)

    def attempt(candidate: TrialSpec) -> bool:
        """Run a candidate; adopt it when the failure class survives."""
        nonlocal best_spec, best_outcome
        if budget.exhausted:
            return False
        budget.evals += 1
        try:
            result = run_trial(candidate)
        except Exception:  # a malformed candidate is just a rejection
            return False
        if result.classification != target:
            return False
        best_spec, best_outcome = candidate, result
        return True

    def with_events(events: List[Event], base: Optional[TrialSpec] = None
                    ) -> Optional[TrialSpec]:
        source = base if base is not None else best_spec
        try:
            return dataclasses.replace(
                source, chaos=rebuild_chaos(source.chaos, events))
        except ValueError:
            return None

    # Pass 1: ddmin over the flattened fault-event list.
    def event_test(events: List[Event]) -> bool:
        candidate = with_events(events)
        return candidate is not None and attempt(candidate)

    _ddmin(fault_events(best_spec.chaos), event_test, budget)

    # Pass 2: halve surviving windows until no halving reproduces.
    improving = True
    while improving and not budget.exhausted:
        improving = False
        events = fault_events(best_spec.chaos)
        for index, (field_name, event) in enumerate(events):
            shorter = _halved_window(event)
            if shorter is None:
                continue
            trimmed = list(events)
            trimmed[index] = (field_name, shorter)
            candidate = with_events(trimmed)
            if candidate is not None and attempt(candidate):
                improving = True
                break  # event list changed; restart the scan

    # Pass 3: halve the workload toward a single message.
    while best_spec.workload.n > 1 and not budget.exhausted:
        n = max(1, best_spec.workload.n // 2)
        candidate = dataclasses.replace(
            best_spec, workload=dataclasses.replace(best_spec.workload, n=n))
        if not attempt(candidate):
            break

    # Pass 4: shrink the topology, dropping faults that lose their target.
    improving = True
    while improving and not budget.exhausted:
        improving = False
        topology = best_spec.topology
        candidates: List[TopologySpec] = []
        if topology.hosts_per_cluster > 1:
            candidates.append(dataclasses.replace(
                topology, hosts_per_cluster=topology.hosts_per_cluster - 1))
        if topology.clusters > 2:
            candidates.append(dataclasses.replace(
                topology, clusters=topology.clusters - 1))
        for smaller in candidates:
            events = _valid_events(fault_events(best_spec.chaos), smaller,
                                   best_spec.seed)
            base = dataclasses.replace(best_spec, topology=smaller)
            candidate = with_events(events, base=base)
            if candidate is not None and attempt(candidate):
                improving = True
                break

    # Pass 5: pull heal_by down to just past the last surviving fault.
    if not budget.exhausted:
        events = fault_events(best_spec.chaos)
        ends = [getattr(e, "end", getattr(e, "until", None))
                for _, e in events]
        ends = [end for end in ends if end is not None and end != float("inf")]
        if events and ends and not any(
                name in ("host_churn", "link_churn") for name, _ in events):
            tight = round(max(ends) + 1.0, 6)
            if tight < best_spec.chaos.heal_by:
                try:
                    chaos = rebuild_chaos(best_spec.chaos, events,
                                          heal_by=tight)
                except ValueError:
                    chaos = None
                if chaos is not None:
                    attempt(dataclasses.replace(best_spec, chaos=chaos))

    return ShrinkResult(
        spec=best_spec, outcome=best_outcome,
        original_events=original_events,
        events=fault_event_count(best_spec.chaos),
        evals=budget.evals)
