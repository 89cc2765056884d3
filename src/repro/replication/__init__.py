"""Read replication: k-replica fragments, failover, peer recovery.

The paper's architecture gives every fragment exactly one owner, so a
dead owner means partial answers until it returns.  This subsystem
relaxes that: owners asynchronously replicate their local information
to their k nearest peers on the site ring, subquery dispatch fails
over to a replica when the owner is unreachable -- serving the copy
only when its version stamp satisfies the query's freshness bound --
and a restarting site rehydrates its fragment from peer replicas
before falling back to WAL replay.

Switched on by listing a :class:`ReplicationConfig` in
``Cluster(subsystems=[...])``; everything it does -- its four wire
kinds, the per-agent manager, the cluster-level ring wiring, its
metrics and EXPLAIN sections -- lives in this package and reaches the
agents through :mod:`repro.net.subsystem`.  Not listed (the default),
it adds no wire messages and no envelope bytes: traffic is
byte-identical to a build without it.
"""

from repro.replication.config import ReplicationConfig
from repro.replication.manager import (
    ReplicationManager,
    freshness_bound,
    replica_peers,
)
from repro.replication.messages import (
    RehydrateAnswer,
    RehydrateRequest,
    ReplicaRetireMessage,
    ReplicateMessage,
)
from repro.replication.ring import ReplicationRing

__all__ = [
    "RehydrateAnswer",
    "RehydrateRequest",
    "ReplicaRetireMessage",
    "ReplicateMessage",
    "ReplicationConfig",
    "ReplicationManager",
    "ReplicationRing",
    "freshness_bound",
    "replica_peers",
]
