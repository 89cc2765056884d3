"""Configuration for read replication (the subsystem's one switch)."""

from repro.replication.manager import ReplicationManager
from repro.replication.ring import ReplicationRing


class ReplicationConfig:
    """Tunables for read replication.

    ``k``
        how many ring-successor peers hold a copy of each owner's
        fragment (the SwarmAdaptiveMemory-style top-k nearest peers).
        ``k <= 0`` means off: no manager is built and the wire stays
        byte-identical to a build without the subsystem.

    Pass it in ``Cluster(subsystems=[...])`` (or
    ``OAConfig(subsystems=[...])``) to switch the subsystem on.
    """

    name = "replication"

    def __init__(self, k=2):
        self.k = int(k)

    @property
    def enabled(self):
        return self.k > 0

    def site_subsystem(self, agent):
        return ReplicationManager(agent, self) if self.enabled else None

    def cluster_subsystem(self, cluster):
        return ReplicationRing(cluster, self) if self.enabled else None

    def __repr__(self):
        return f"ReplicationConfig(k={self.k})"
