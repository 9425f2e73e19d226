"""Geo-distributed multi-region deployment (paper Sec. IV-E).

Multiple :class:`~repro.cluster.PlatformCluster`\\ s as named regions over
a simulated WAN: async cross-region replication with hinted handoff and
set-digest anti-entropy, per-call consistency modes (eventual /
read-your-writes / linearizable), follow-the-user re-homing, and
partition-tolerant routing.  See :mod:`repro.geo.deployment`.
"""

from .deployment import (
    CONSISTENCY_MODES,
    EVENTUAL,
    LINEARIZABLE,
    READ_YOUR_WRITES,
    GeoConfig,
    GeoDeployment,
    GeoSession,
)
from .replication import GeoReplicator

__all__ = [
    "CONSISTENCY_MODES",
    "EVENTUAL",
    "GeoConfig",
    "GeoDeployment",
    "GeoReplicator",
    "GeoSession",
    "LINEARIZABLE",
    "READ_YOUR_WRITES",
]
