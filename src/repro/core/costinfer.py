"""Host-level inference of the cost bit from transit times (Section 2).

The paper's primary mechanism has the *network* set a cost bit on
packets that traverse an expensive link, but it explicitly notes:

    "Even if the network did not provide this type of service, it could
    be implemented at the host level.  One way to do this would be to
    timestamp each message at the time it is sent out.  This would
    allow each host to estimate the time in transit.  Since the
    expected times for cheaply delivered messages and for expensively
    delivered ones vary significantly, hosts would be able to tell them
    apart."

:class:`TransitTimeClassifier` implements exactly that.  Every message
already carries its send timestamp; the receiving host computes the
transit time and classifies it:

* the smallest transit time seen so far calibrates the "cheap" scale
  (intra-cluster paths are LAN-class and essentially constant);
* a delivery is classified *expensive* when its transit exceeds
  ``spread_factor`` × that cheap baseline — with ARPANET-class numbers
  the two populations differ by an order of magnitude, so a single
  multiplicative threshold separates them robustly;
* the baseline is tracked as a slowly-decaying minimum so a lucky
  too-small early sample cannot poison classification forever, and
  queueing noise on cheap paths only inflates transit *transiently*.

Misclassification is tolerable by design: the paper's CLUSTER sets are
themselves allowed to be wrong and self-correct with later messages.
"""

from __future__ import annotations


class TransitTimeClassifier:
    """Classify deliveries as cheap/expensive from their transit times."""

    def __init__(
        self,
        spread_factor: float = 5.0,
        decay: float = 1.02,
        initial_floor: float = 1e-6,
    ) -> None:
        """Args:
            spread_factor: transit beyond ``spread_factor * cheap_baseline``
                is classified expensive.  Must exceed 1.
            decay: each observation multiplies the remembered baseline by
                this factor before taking the min, letting it forget
                anomalously fast early samples.  1.0 disables decay.
            initial_floor: lower clamp for the baseline (guards against a
                zero-transit artifact).
        """
        if spread_factor <= 1.0:
            raise ValueError("spread_factor must exceed 1")
        if decay < 1.0:
            raise ValueError("decay must be >= 1")
        if initial_floor <= 0:
            raise ValueError("initial_floor must be positive")
        self.spread_factor = spread_factor
        self.decay = decay
        self.initial_floor = initial_floor
        self._baseline: float = float("inf")
        self.observations = 0

    @property
    def cheap_baseline(self) -> float:
        """Current estimate of the cheap-path transit time."""
        return self._baseline

    def classify(self, transit: float) -> bool:
        """Observe one delivery; returns True when it looks *expensive*.

        The very first observation calibrates the baseline and is
        classified cheap (there is nothing to compare against yet) —
        matching the paper's optimistic initialization, where wrong
        early guesses are corrected by subsequent traffic.
        """
        if transit < 0:
            raise ValueError(f"transit time cannot be negative: {transit}")
        self.observations += 1
        sample = max(transit, self.initial_floor)
        if self._baseline == float("inf"):
            self._baseline = sample
            return False
        self._baseline = min(self._baseline * self.decay, sample)
        return transit > self.spread_factor * self._baseline
