"""Per-invariant containment classification under adversarial hosts.

The invariant table (:data:`repro.verify.invariants.INVARIANTS`)
answers "does the invariant hold?" — all-or-nothing, which is the
right question when every host is correct.  Under k misbehaving hosts
(:mod:`repro.chaos.adversary`) the interesting question is *where the
damage stops*, in the spirit of the locally-bounded Byzantine model
(Bonomi/Farina/Tixeuil): an invariant may

* ``holds_globally`` — no violation anywhere, adversaries included;
* ``holds_correct_only`` — every observed violation involves at least
  one adversary host, so the damage is **contained**: the sub-system of
  correct hosts still satisfies the invariant;
* ``broken`` — some violation involves only correct hosts: the
  adversary corrupted state *beyond* itself, which is the outcome the
  paper's host-carried-obligations architecture must prevent.

Attribution is structural, not textual: each violation is the tuple
of host names the table's row returns (the
:class:`~repro.verify.monitor.InvariantMonitor` keys its
:class:`~repro.verify.monitor.ViolationSpan` records with the same
tuples, after the kind), and a violation is contained iff its host set
intersects the adversary set.

Like all of :mod:`repro.verify`, this is an oracle: it reads ground
truth (real INFO sets, real parent pointers, real delivery logs) that
no protocol host — honest or not — can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .invariants import INVARIANTS
from .monitor import ViolationSpan

#: classification outcomes, ordered from best to worst
CONTAINMENT_STATUSES: Tuple[str, ...] = (
    "holds_globally", "holds_correct_only", "broken")


@dataclass(frozen=True)
class InvariantContainment:
    """One invariant's fate under the run's adversaries."""

    invariant: str
    status: str
    #: each violation as the tuple of host names it involves
    violations: Tuple[Tuple[str, ...], ...] = ()

    @property
    def contained(self) -> bool:
        """True unless damage reached hosts beyond the adversaries."""
        return self.status != "broken"


def _classify(invariant: str,
              violations: Sequence[Tuple[str, ...]],
              adversaries: FrozenSet[str]) -> InvariantContainment:
    if not violations:
        return InvariantContainment(invariant, "holds_globally")
    contained = all(any(h in adversaries for h in hosts)
                    for hosts in violations)
    return InvariantContainment(
        invariant, "holds_correct_only" if contained else "broken",
        tuple(violations))


def classify_containment(
    system: Any,
    adversaries: Iterable[str],
    quiescent: bool = False,
    n: Optional[int] = None,
) -> Tuple[InvariantContainment, ...]:
    """Classify every applicable §4.3 invariant on the live system.

    ``quiescent`` adds the structure invariants that only make sense at
    rest (leadership, CHILDREN consistency); ``n`` adds ``delivery``
    (every host delivered 1..n — the reliability claim itself, framed
    as an invariant so its containment is reported alongside).
    """
    adv = frozenset(str(a) for a in adversaries)
    results = [_classify(inv.name, inv.violations(system), adv)
               for inv in INVARIANTS if quiescent or not inv.quiescent]
    if n is not None:
        missing = [(str(h),) for h, host in system.hosts.items()
                   if not host.deliveries.has_all(n)]
        results.append(_classify("delivery", missing, adv))
    return tuple(results)


# ----------------------------------------------------------------------
# Monitor-span attribution (online observations, not just end state)
# ----------------------------------------------------------------------


def span_hosts(span: ViolationSpan) -> Tuple[str, ...]:
    """The host names a monitor violation span involves (its key minus
    the leading invariant kind)."""
    return tuple(span.key[1:])


def classify_spans(
    spans: Iterable[ViolationSpan],
    adversaries: Iterable[str],
    stable_only: bool = True,
) -> Tuple[InvariantContainment, ...]:
    """Classify an :class:`~repro.verify.monitor.InvariantMonitor`'s
    observed violation spans by invariant kind.

    With ``stable_only`` (the default) transient spans — expected
    mid-recovery wobble — are ignored; a span that was still active
    when monitoring stopped counts regardless of duration.  Kinds with
    no surviving span report ``holds_globally``.
    """
    adv = frozenset(str(a) for a in adversaries)
    by_kind: Dict[str, List[Tuple[str, ...]]] = {
        inv.kind: [] for inv in INVARIANTS if not inv.quiescent}
    for span in spans:
        if stable_only and not (span.stable or span.unresolved_at_end):
            continue
        by_kind.setdefault(span.key[0], []).append(span_hosts(span))
    return tuple(_classify(kind, violations, adv)
                 for kind, violations in sorted(by_kind.items()))


def worst_status(results: Iterable[InvariantContainment]) -> str:
    """The most pessimistic status across ``results`` (empty input is
    vacuously ``holds_globally``)."""
    worst = 0
    for result in results:
        worst = max(worst, CONTAINMENT_STATUSES.index(result.status))
    return CONTAINMENT_STATUSES[worst]
