"""Trial execution and property checking: spec in, verdict out.

:func:`run_trial` is the single place a :class:`TrialSpec` becomes a
live simulation.  It deploys the chosen protocol over the generated
topology, arms the :class:`~repro.verify.monitor.InvariantMonitor` (tree
protocol only — the basic algorithm has no parent graph to check),
starts the :class:`~repro.chaos.plan.ChaosPlan`, streams the workload,
lets the chaos window play out, and then gives the protocol until the
trial horizon to finish delivering.  The verdict is one of three
classes, checked in severity order:

* ``stable_violation`` — a §4.3 safety invariant (harmful parent cycle,
  INFO dominance) persisted past the monitor's stable window, *or* was
  still unresolved when the run ended;
* ``no_eventual_delivery`` — the network healed, the horizon passed,
  and some host still misses part of the stream: the paper's core
  liveness claim failed;
* ``clean`` — everything delivered, no stable violation.

When the trial's chaos includes adversarial host personas
(``ChaosSpec.adversaries``), the verdict is taken over the **correct
hosts only**: an adversary that refuses to deliver to *itself* is not
a protocol failure, but a correct host that misses messages — or a
stable violation among correct hosts — is.  Stable violations that
involve the adversary hosts are reported separately as *contained*
(:mod:`repro.verify.containment`): real damage, but damage that
stopped at the misbehaving hosts.

Every outcome carries a **delivery signature**: a SHA-256 digest over
the canonical JSON of every host's delivery records (sequence, time,
supplier, gap-fill flag) — adversaries included, since replay must be
byte-exact.  Two runs of the same spec must produce the same signature
byte-for-byte — that is the replay guarantee repro artifacts (and the
serial == parallel parity tests) assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Tuple

from ..chaos import ChaosPlan
from ..experiments import deploy
from ..verify import InvariantMonitor, span_hosts
from .generator import TrialSpec, build_topology

CLEAN = "clean"
STABLE_VIOLATION = "stable_violation"
NO_EVENTUAL_DELIVERY = "no_eventual_delivery"

#: verdicts that make a trial a *failure* worth shrinking
FAILURE_CLASSES = (STABLE_VIOLATION, NO_EVENTUAL_DELIVERY)

#: cap on the missing-pair list kept in an outcome (repro artifacts
#: must stay small; the full list is recomputable from the spec)
_MISSING_CAP = 50


@dataclass(frozen=True)
class TrialOutcome:
    """The deterministic verdict of one trial."""

    classification: str
    delivered_fraction: float
    #: undelivered (host, seq) pairs, sorted, capped at 50
    missing: Tuple[Tuple[str, int], ...]
    #: structural keys of stable / unresolved violations ("kind/h1/h2")
    violations: Tuple[str, ...]
    #: SHA-256 over canonical per-host delivery records
    signature: str
    end_time: float
    #: hosts that ran adversary personas (verdict excludes them)
    adversaries: Tuple[str, ...] = ()
    #: stable violations whose hosts include an adversary — contained
    #: damage, reported but not classified as a protocol failure
    contained_violations: Tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.classification in FAILURE_CLASSES


def delivery_signature(system) -> str:
    """Canonical digest of every host's delivery records."""
    payload: List[List[object]] = []
    for host_id in sorted(system.hosts, key=str):
        records = sorted(system.hosts[host_id].deliveries.records(),
                         key=lambda r: r.seq)
        payload.append([str(host_id),
                        [[r.seq, round(r.delivered_at, 9), str(r.supplier),
                          bool(r.via_gapfill)] for r in records]])
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_system(spec: TrialSpec):
    """Deploy the trial's protocol instance (started) over its topology.

    Trials run :func:`~repro.experiments.deploy`'s sweep config: its
    4 000-bit data messages keep random workloads from saturating
    56 kbit/s trunks into a trivial congestion collapse.
    """
    sim, built = build_topology(spec)
    overrides = {"crash_stable_lag": spec.crash_stable_lag}
    if spec.adaptive:  # only ever set for the tree protocol
        overrides["adaptive"] = True
    return sim, built, deploy(spec.protocol, built, **overrides)


def run_trial(spec: TrialSpec) -> TrialOutcome:
    """Run one trial to its verdict (pure function of the spec)."""
    sim, built, system = build_system(spec)
    monitor = None
    if spec.protocol == "tree":
        monitor = InvariantMonitor(system, sample_period=1.0,
                                   stable_window=spec.stable_window).start()
    ChaosPlan(sim, system, spec.chaos).start()
    adversaries = frozenset(a.host for a in spec.chaos.adversaries)
    correct = [h for h in built.hosts if str(h) not in adversaries]
    n = spec.workload.n
    system.broadcast_stream(n, interval=spec.workload.interval,
                            start_at=spec.workload.start_at)
    sim.run(until=spec.chaos.heal_by + 1.0)  # chaos window plays out fully
    delivered_all = system.run_until_delivered(
        n, timeout=spec.horizon,
        hosts=correct if adversaries else None)

    violations: Tuple[str, ...] = ()
    contained: Tuple[str, ...] = ()
    if monitor is not None:
        # Settle past one full stable window before the verdict: any
        # violation active right now either resolves (transient, fine)
        # or crosses the stable threshold — and stop() closes streaks
        # still open at that point, so a violation alive at the very
        # end is judged by its true duration, never dropped.
        sim.run(until=sim.now + spec.stable_window + 1.0)
        monitor.stop()
        report = monitor.report()
        stable = set(report.stable_violations)
        # A stable violation that involves an adversary host is damage
        # the misbehavior *contained*: report it, but only violations
        # entirely among correct hosts fail the trial.
        violations = tuple(sorted(
            "/".join(span.key) for span in stable
            if not any(h in adversaries for h in span_hosts(span))))
        contained = tuple(sorted(
            "/".join(span.key) for span in stable
            if any(h in adversaries for h in span_hosts(span))))

    missing: List[Tuple[str, int]] = []
    delivered_pairs = 0
    for host_id in correct:
        info_deliveries = system.hosts[host_id].deliveries
        for seq in range(1, n + 1):
            if seq in info_deliveries:
                delivered_pairs += 1
            else:
                missing.append((str(host_id), seq))
    total_pairs = len(correct) * n

    if violations:
        classification = STABLE_VIOLATION
    elif not delivered_all:
        classification = NO_EVENTUAL_DELIVERY
    else:
        classification = CLEAN
    return TrialOutcome(
        classification=classification,
        delivered_fraction=(delivered_pairs / total_pairs
                            if total_pairs else 1.0),
        missing=tuple(sorted(missing)[:_MISSING_CAP]),
        violations=violations,
        signature=delivery_signature(system),
        end_time=round(sim.now, 9),
        adversaries=tuple(sorted(adversaries)),
        contained_violations=contained,
    )
