"""The paper's contribution: the reliable broadcast protocol.

Stable public surface (``__all__``):

* :class:`BroadcastSystem` — assemble the protocol over a topology.
* :class:`BroadcastHost` / :class:`SourceHost` — the sans-IO protocol
  machines; they depend only on the :class:`repro.io.interfaces.Runtime`
  and :class:`~repro.io.interfaces.Transport` contracts, so the same
  classes run in-sim and over real sockets.
* :class:`MultiSourceBroadcastSystem` — several identical single-source
  protocols multiplexed over one network.
* :class:`ProtocolConfig` / :class:`ClusterMode` / :class:`CostBitMode`
  / :class:`ResourceConfig` — tuning knobs.
* :class:`SeqnoSet` and the INFO partial order — the data structures.
* The wire vocabulary (:class:`DataMsg`, :class:`InfoMsg`, ...).
* :mod:`repro.core.attachment` — the attachment procedure (pure logic).

Transport plumbing (:class:`PiggybackPort`, :class:`ControlBundle`,
:class:`PortMux`, :class:`TaggedPayload`, :class:`VirtualPort`) lives in
:mod:`repro.core.piggyback` and :mod:`repro.core.multisource`.
"""

from .attachment import (
    AttachmentPlan,
    AttachmentView,
    Candidate,
    classify_case,
    plan_attachment,
)
from .cluster import ClusterView
from .config import ClusterMode, CostBitMode, ProtocolConfig
from .costinfer import TransitTimeClassifier
from .delivery import DeliveryLog, DeliveryRecord
from .engine import BroadcastSystem
from .host import BroadcastHost
from .mapstate import MapState
from .multisource import MultiSourceBroadcastSystem
from .ordering import FifoDeliveryAdapter
from .resources import ResourceConfig, ShedPolicy, TokenBucket
from .rtt import CongestionSignal, ExponentialBackoff, PeerRtt, RttEstimator
from .seqnoset import FrozenSeqnoSet, SeqnoSet, info_equiv, info_leq, info_less
from .source import SourceHost
from .wire import (
    KIND_CONTROL,
    KIND_DATA,
    AttachAck,
    AttachRequest,
    DataMsg,
    DetachNotice,
    InfoMsg,
    checksum_ok,
    corrupted_copy,
)

__all__ = [
    "AttachAck",
    "AttachRequest",
    "AttachmentPlan",
    "AttachmentView",
    "BroadcastHost",
    "BroadcastSystem",
    "Candidate",
    "CongestionSignal",
    "ClusterMode",
    "CostBitMode",
    "ClusterView",
    "DataMsg",
    "DeliveryLog",
    "DeliveryRecord",
    "DetachNotice",
    "ExponentialBackoff",
    "FifoDeliveryAdapter",
    "InfoMsg",
    "KIND_CONTROL",
    "KIND_DATA",
    "MapState",
    "MultiSourceBroadcastSystem",
    "PeerRtt",
    "ProtocolConfig",
    "ResourceConfig",
    "RttEstimator",
    "SeqnoSet",
    "FrozenSeqnoSet",
    "ShedPolicy",
    "TokenBucket",
    "SourceHost",
    "TransitTimeClassifier",
    "checksum_ok",
    "classify_case",
    "corrupted_copy",
    "info_equiv",
    "info_leq",
    "info_less",
    "plan_attachment",
]
