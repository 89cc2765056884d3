"""Read replication: owners push to k ring peers, failover asks them.

Owners push their local information into the fragments of their k
nearest peers on the site ring, as ordinary cached copies; when an owner
is unreachable, subquery dispatch re-sends the subquery, unchanged and
flagged ``no_forward``, to those peers, whose walk applies the query's
own freshness bound; and a restarting site rebuilds its fragment from
its peers before falling back to WAL replay.  Switched on by listing a
:class:`ReplicationConfig` in ``Cluster(subsystems=[...])``; not listed
(the default), it adds no wire messages and no envelope bytes.
"""

from repro.replication.config import ReplicationConfig
from repro.replication.manager import ReplicationManager, replica_peers
from repro.replication.ring import ReplicationRing

__all__ = [
    "ReplicationConfig",
    "ReplicationManager",
    "ReplicationRing",
    "replica_peers",
]
