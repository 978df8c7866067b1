"""Adaptive control-plane timing: RTT estimation, backoff, congestion.

The paper leaves every protocol timeout as a tuning parameter
(Sections 4.2, 6); :class:`~repro.core.config.ProtocolConfig` pins them
to constants that suit one topology.  Heterogeneous delays — a LAN
neighbor 4 ms away and a trans-continental parent 500 ms away — want
*per-peer* deadlines, so this module provides the three classical
mechanisms the adaptive control plane composes:

* :class:`RttEstimator` / :class:`PeerRtt` — Jacobson/Karn smoothed
  round-trip estimation (the RFC 6298 rules: ``SRTT``/``RTTVAR`` with
  gains 1/8 and 1/4, ``RTO = SRTT + 4·RTTVAR``, exponential backoff of
  the RTO after a timeout, reset on the next valid sample).  Samples
  come from the attach handshake (request → matching ack, unambiguous
  thanks to the per-attempt counter — Karn's rule) and from the
  INFO-exchange echo (see ``InfoMsg.stamp``/``echo_stamp``), which also
  covers the peers gap fills are requested from.
* :class:`ExponentialBackoff` — capped doubling with seeded jitter, for
  attach retry rounds and non-neighbor gap-fill pacing.  Jitter draws
  come from a dedicated named RNG stream, so enabling the adaptive
  plane never perturbs any other stream's sequence.
* :class:`CongestionSignal` — an exponentially decaying estimate of the
  local *badness* rate (duplicate, corrupt, or discarded receives as a
  fraction of all receives).  When it crosses a threshold the host
  throttles optional repair traffic instead of amplifying it.

Everything here is pure bookkeeping: no simulator events, no hidden
randomness (only :class:`ExponentialBackoff` draws, from the stream it
was given).  The host feeds and consults the RTT estimators and
backoffs only when ``ProtocolConfig.adaptive`` is on, which is how
``adaptive=False`` runs stay bit-identical to the pre-adaptive
protocol.  The congestion signal is also fed when source admission
control is on (``ResourceConfig.admission_rate``), whose brake reads it
in either mode.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..net import HostId

#: RFC 6298 gains
ALPHA = 0.125
BETA = 0.25
#: clock granularity floor on the variance term (seconds)
GRANULARITY = 0.001
#: cap on the Karn backoff multiplier (the config ceiling clamps the
#: final deadline anyway; this just keeps the multiplier bounded)
MAX_BACKOFF_MULT = 64.0


class RttEstimator:
    """Jacobson/Karn SRTT/RTTVAR estimation for one peer (RFC 6298)."""

    __slots__ = ("srtt", "rttvar", "samples", "_backoff")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.samples: int = 0
        self._backoff: float = 1.0

    def observe(self, sample: float) -> None:
        """Feed one round-trip sample (seconds); negatives are ignored."""
        if sample < 0.0 or not math.isfinite(sample):
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - sample)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * sample
        self.samples += 1
        # A valid (unambiguous) sample ends any timeout backoff.
        self._backoff = 1.0

    def on_timeout(self) -> None:
        """Karn: double the RTO after a timeout until a fresh sample."""
        self._backoff = min(self._backoff * 2.0, MAX_BACKOFF_MULT)

    def rto(self) -> Optional[float]:
        """Current retransmission timeout, or None with no samples yet."""
        if self.srtt is None:
            return None
        return (self.srtt + max(4.0 * self.rttvar, GRANULARITY)) * self._backoff


class PeerRtt:
    """Per-peer :class:`RttEstimator` registry for one host."""

    __slots__ = ("_peers",)

    def __init__(self) -> None:
        self._peers: Dict[HostId, RttEstimator] = {}

    def observe(self, peer: HostId, sample: float) -> None:
        """Feed one round-trip sample for ``peer``."""
        estimator = self._peers.get(peer)
        if estimator is None:
            estimator = self._peers[peer] = RttEstimator()
        estimator.observe(sample)

    def on_timeout(self, peer: HostId) -> None:
        """Record a timeout against ``peer`` (doubles its RTO)."""
        estimator = self._peers.get(peer)
        if estimator is not None:
            estimator.on_timeout()

    def samples(self, peer: HostId) -> int:
        """Number of samples collected for ``peer``."""
        estimator = self._peers.get(peer)
        return 0 if estimator is None else estimator.samples

    def srtt(self, peer: HostId) -> Optional[float]:
        """Smoothed RTT for ``peer`` (None with no samples)."""
        estimator = self._peers.get(peer)
        return None if estimator is None else estimator.srtt

    def rto(self, peer: HostId, floor: float, ceiling: float) -> float:
        """RTO for ``peer`` clamped to [floor, ceiling].

        With no samples the *ceiling* — the fixed configured timeout —
        is returned: an unmeasured peer behaves exactly as in the
        non-adaptive protocol, so adaptivity can only tighten deadlines
        it has evidence for.
        """
        estimator = self._peers.get(peer)
        raw = None if estimator is None else estimator.rto()
        if raw is None:
            return ceiling
        return min(max(raw, floor), ceiling)


class ExponentialBackoff:
    """Capped exponential backoff with seeded jitter.

    ``next_delay()`` returns ``min(base * 2**k, cap)`` times a jitter
    factor uniform in ``[1 - jitter_frac, 1 + jitter_frac]``, advancing
    ``k``; ``reset()`` returns to the base delay.  The jitter RNG is a
    dedicated stream so the draw sequence is seed-deterministic and
    isolated from every other consumer.
    """

    __slots__ = ("base", "cap", "jitter_frac", "_rng", "_exponent")

    def __init__(self, base: float, cap: float, jitter_frac: float, rng) -> None:
        if base <= 0 or cap < base:
            raise ValueError("need 0 < base <= cap")
        if not 0 <= jitter_frac < 1:
            raise ValueError("jitter_frac must be in [0, 1)")
        self.base = base
        self.cap = cap
        self.jitter_frac = jitter_frac
        self._rng = rng
        self._exponent = 0

    @property
    def exponent(self) -> int:
        """How many consecutive delays have been handed out."""
        return self._exponent

    def next_delay(self) -> float:
        """The next (jittered, doubled) delay."""
        delay = min(self.base * (2.0 ** self._exponent), self.cap)
        self._exponent += 1
        if self.jitter_frac > 0:
            delay *= 1.0 + self._rng.uniform(-self.jitter_frac, self.jitter_frac)
        return delay

    def reset(self) -> None:
        """Return to the base delay (after a success)."""
        self._exponent = 0


class CongestionSignal:
    """Exponentially decaying duplicate/corrupt receive-rate estimate.

    ``note_good``/``note_bad`` feed receives; both tallies decay with
    half-life ``window`` so the level tracks the *recent* rate.  The
    signal is pure event-time arithmetic — no simulator events, no
    randomness — and safe to feed unconditionally.
    """

    __slots__ = ("window", "_good", "_bad", "_at")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._good = 0.0
        self._bad = 0.0
        self._at = 0.0

    def _decay(self, now: float) -> None:
        dt = now - self._at
        if dt > 0:
            factor = 0.5 ** (dt / self.window)
            self._good *= factor
            self._bad *= factor
        self._at = now

    def note_good(self, now: float) -> None:
        """Record one clean receive."""
        self._decay(now)
        self._good += 1.0

    def note_bad(self, now: float) -> None:
        """Record one duplicate/corrupt/discarded receive."""
        self._decay(now)
        self._bad += 1.0

    def level(self, now: float) -> float:
        """Recent bad-receive fraction in [0, 1] (0 while quiet)."""
        self._decay(now)
        total = self._good + self._bad
        if total < 1.0:
            return 0.0  # too little recent evidence to call congestion
        return self._bad / total
