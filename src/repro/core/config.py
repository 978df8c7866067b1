"""Protocol tuning parameters.

The paper (Sections 4.2, 6) leaves several frequencies as explicit
parameters of the algorithm — INFO/parent-pointer exchange, the two
gap-filling rates, the attachment period, and the various timeouts.
They embody the reliability↔cost trade-off studied in experiment E7,
so everything is collected in one frozen dataclass that experiments can
sweep.

``ClusterMode`` selects how a host knows its cluster (Section 6,
conclusions): ``DYNAMIC`` is the paper's main design (learn from cost
bits), ``STATIC`` uses fixed a-priori cluster knowledge, ``SINGLETON``
assumes every host is alone in its cluster (no cluster information at
all).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .resources import ResourceConfig


class ClusterMode(Enum):
    """How hosts obtain cluster information (Section 6)."""

    DYNAMIC = "dynamic"
    STATIC = "static"
    SINGLETON = "singleton"


class CostBitMode(Enum):
    """How hosts learn whether a delivery crossed an expensive link (§2).

    ``NETWORK`` reads the cost bit servers stamp on packets (the paper's
    primary mechanism); ``TIMESTAMP`` ignores it and infers the class
    from the message's time in transit (the paper's host-level
    alternative, implemented by
    :class:`repro.core.costinfer.TransitTimeClassifier`).
    """

    NETWORK = "network"
    TIMESTAMP = "timestamp"


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of the broadcast protocol.  Times are simulated seconds."""

    # -- attachment procedure ------------------------------------------------
    #: how often each host runs the attachment procedure (Section 4.2)
    attachment_period: float = 1.0
    #: jitter applied to the attachment period (desynchronizes hosts)
    attachment_jitter: float = 0.2
    #: how long to wait for an AttachAck before trying the next candidate
    attach_ack_timeout: float = 2.0

    # -- INFO / parent-pointer exchange ---------------------------------------
    #: period of INFO exchange with hosts believed to be cluster neighbors
    info_intra_period: float = 0.5
    #: period of INFO exchange with all other hosts (across clusters)
    info_inter_period: float = 6.0
    #: jitter fraction applied to both exchange periods
    info_jitter_frac: float = 0.2

    # -- parent liveness ------------------------------------------------------
    #: declare an in-cluster parent dead after this long without any message
    parent_timeout_intra: float = 2.5
    #: declare an out-of-cluster parent dead after this long
    parent_timeout_inter: float = 20.0

    # -- gap filling (Section 4.4) --------------------------------------------
    #: period of gap filling toward parent-graph neighbors in the same cluster
    gapfill_neighbor_intra_period: float = 1.0
    #: period of gap filling toward parent-graph neighbors in other clusters
    gapfill_neighbor_inter_period: float = 4.0
    #: period of gap filling toward NON-neighbors (the Figure 4.1 mechanism)
    gapfill_nonneighbor_period: float = 15.0
    #: cap on data messages sent per gap-fill action toward one host
    gapfill_batch_limit: int = 20
    #: smaller cap toward out-of-cluster hosts: batches cross expensive,
    #: low-bandwidth trunks and must not monopolize them
    gapfill_batch_limit_inter: int = 8
    #: do not re-send the same seq to the same host within this window;
    #: bounds duplicate fills caused by stale MAP views while still
    #: retrying genuinely lost fills after the window expires
    gapfill_suppression: float = 8.0

    # -- parent-graph consistency ------------------------------------------------
    #: a child is only reconciled away (dropped because its routine
    #: parent-pointer exchange names someone else) after this grace
    #: period, so an InfoMsg already in flight when it attached cannot
    #: evict it
    child_reconcile_grace: float = 5.0
    #: a host whose parent advertises a larger INFO set but has sent no
    #: data for this long re-sends an AttachRequest to its own parent
    #: (heals the parent having silently dropped it from CHILDREN)
    parent_refresh_timeout: float = 8.0
    #: ablation flags for the two consistency repairs (see DESIGN.md §4);
    #: disabling them demonstrates the lost-ack pathologies they fix
    enable_child_reconcile: bool = True
    enable_parent_refresh: bool = True

    # -- feature flags / ablations ---------------------------------------------
    #: enable case II option 3 (delay-minimizing re-parenting); ablation E10
    enable_delay_optimization: bool = True
    #: hysteresis for II.3: only switch parents when the candidate's
    #: INFO maximum leads the current parent's by at least this many
    #: messages (1 = the paper's literal strict inequality; higher
    #: values damp re-parenting churn caused by view staleness)
    delay_opt_margin: int = 2
    #: how hosts know their clusters (Section 6)
    cluster_mode: ClusterMode = ClusterMode.DYNAMIC
    #: how hosts learn link classes (Section 2): network cost bit, or
    #: host-level inference from message transit times
    cost_bit_mode: CostBitMode = CostBitMode.NETWORK
    #: piggyback same-destination control messages into one packet
    #: (Section 6 optimization)
    enable_piggybacking: bool = False
    #: prune INFO sets once all hosts are known to have a prefix (Section 6)
    enable_info_pruning: bool = True

    # -- adaptive control plane (repro.core.rtt; DESIGN.md §9) -------------------
    #: derive attach/parent/gap-fill deadlines from per-peer RTT
    #: estimates instead of the fixed values above.  Off by default:
    #: ``adaptive=False`` is the escape hatch that keeps every existing
    #: trace bit-identical.  The fixed values stay meaningful either
    #: way — they become the *ceilings* of the adaptive deadlines.
    adaptive: bool = False
    #: base/cap of the attach-round exponential backoff (applied after
    #: an attachment round exhausts every candidate)
    attach_backoff_base: float = 2.0
    attach_backoff_cap: float = 16.0
    #: half-life of the congestion signal's decaying receive tallies
    congestion_window: float = 10.0
    #: how long a control message's uid is remembered for duplicate
    #: suppression (bounds the dedup table; replays older than this are
    #: caught by the protocol's own idempotence)
    control_dedup_window: float = 30.0

    # -- host crash/recovery (failure model, §2/§4) ------------------------------
    #: a crashing host keeps only messages already flushed to stable
    #: storage: the contiguous delivered prefix minus the most recent
    #: ``crash_stable_lag`` messages (writes are flushed in order, the
    #: newest may still be buffered).  0 = the whole contiguous prefix
    #: survives; everything above the prefix is always volatile and lost.
    crash_stable_lag: int = 0

    # -- bounded host resources (repro.core.resources; DESIGN.md §13) ------------
    #: buffer limits, shedding policies, and source admission control.
    #: ``None`` (the default) leaves every buffer unbounded and admission
    #: off — byte-identical to builds without the resource model.
    resources: Optional[ResourceConfig] = None

    # -- message sizes -----------------------------------------------------------
    #: application data message size in bits
    data_size_bits: int = 8_000
    #: control message (INFO exchange, attach/detach) size in bits
    control_size_bits: int = 1_000

    def __post_init__(self) -> None:
        positive = [
            ("attachment_period", self.attachment_period),
            ("attach_ack_timeout", self.attach_ack_timeout),
            ("info_intra_period", self.info_intra_period),
            ("info_inter_period", self.info_inter_period),
            ("parent_timeout_intra", self.parent_timeout_intra),
            ("parent_timeout_inter", self.parent_timeout_inter),
            ("gapfill_neighbor_intra_period", self.gapfill_neighbor_intra_period),
            ("gapfill_neighbor_inter_period", self.gapfill_neighbor_inter_period),
            ("gapfill_nonneighbor_period", self.gapfill_nonneighbor_period),
        ]
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.attachment_jitter < 0 or self.attachment_jitter >= self.attachment_period:
            raise ValueError("attachment_jitter must be in [0, attachment_period)")
        if not 0 <= self.info_jitter_frac < 1:
            raise ValueError("info_jitter_frac must be in [0, 1)")
        if self.gapfill_batch_limit < 1 or self.gapfill_batch_limit_inter < 1:
            raise ValueError("gapfill batch limits must be at least 1")
        if self.gapfill_suppression < 0:
            raise ValueError("gapfill_suppression must be non-negative")
        if self.child_reconcile_grace < 0:
            raise ValueError("child_reconcile_grace must be non-negative")
        if self.parent_refresh_timeout <= 0:
            raise ValueError("parent_refresh_timeout must be positive")
        if self.delay_opt_margin < 1:
            raise ValueError("delay_opt_margin must be at least 1")
        if self.attach_backoff_base <= 0 or self.attach_backoff_cap < self.attach_backoff_base:
            raise ValueError("need 0 < attach_backoff_base <= attach_backoff_cap")
        if self.congestion_window <= 0:
            raise ValueError("congestion_window must be positive")
        if self.control_dedup_window <= 0:
            raise ValueError("control_dedup_window must be positive")
        if self.crash_stable_lag < 0:
            raise ValueError("crash_stable_lag must be non-negative")
        if self.data_size_bits < 1 or self.control_size_bits < 1:
            raise ValueError("message sizes must be positive")

    @classmethod
    def for_scale(cls, n_hosts: int, **overrides: object) -> "ProtocolConfig":
        """Defaults adjusted for deployments of ``n_hosts`` participants.

        The all-pairs inter-cluster INFO exchange generates O(N²)
        control messages per period; on low-bandwidth (56 kbit/s class)
        trunks this saturates the backbone for a few dozen hosts unless
        the period grows with N.  This constructor stretches the
        inter-cluster rates linearly with N (the paper: control traffic
        "can be adjusted as desired", Section 5) while leaving the cheap
        intra-cluster rates alone.
        """
        if n_hosts < 1:
            raise ValueError("n_hosts must be positive")
        inter = max(6.0, 0.3 * n_hosts)
        defaults = dict(
            info_inter_period=inter,
            parent_timeout_inter=3.5 * inter,
            gapfill_nonneighbor_period=2.5 * inter,
            gapfill_suppression=1.5 * inter,
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    def scaled(self, factor: float) -> "ProtocolConfig":
        """A config with all periods/timeouts multiplied by ``factor``.

        This is the one-knob version of the paper's reliability↔cost
        trade-off: smaller factors exchange state more often (more
        reliable, more control traffic).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return dataclasses.replace(
            self,
            attachment_period=self.attachment_period * factor,
            attachment_jitter=self.attachment_jitter * factor,
            attach_ack_timeout=self.attach_ack_timeout * factor,
            info_intra_period=self.info_intra_period * factor,
            info_inter_period=self.info_inter_period * factor,
            parent_timeout_intra=self.parent_timeout_intra * factor,
            parent_timeout_inter=self.parent_timeout_inter * factor,
            gapfill_neighbor_intra_period=self.gapfill_neighbor_intra_period * factor,
            gapfill_neighbor_inter_period=self.gapfill_neighbor_inter_period * factor,
            gapfill_nonneighbor_period=self.gapfill_nonneighbor_period * factor,
            gapfill_suppression=self.gapfill_suppression * factor,
            child_reconcile_grace=self.child_reconcile_grace * factor,
            parent_refresh_timeout=self.parent_refresh_timeout * factor,
            attach_backoff_base=self.attach_backoff_base * factor,
            attach_backoff_cap=self.attach_backoff_cap * factor,
            congestion_window=self.congestion_window * factor,
            control_dedup_window=self.control_dedup_window * factor,
        )
