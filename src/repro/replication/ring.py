"""The cluster-level half of read replication: ring wiring, recovery.

One :class:`ReplicationRing` per cluster pins the site ring on every
agent's :class:`~repro.replication.manager.ReplicationManager`, seeds
the replica sets, rebuilds a restarting site's fragment from its peers'
copies, and rolls the per-site counters up into the cluster-wide
``replication`` metrics section.
"""

from repro.core.database import SensorDatabase
from repro.core.status import get_status
from repro.net.errors import NetError
from repro.replication.manager import replica_peers
from repro.replication.messages import RehydrateAnswer, RehydrateRequest


class ReplicationRing:
    """Cluster hooks for replication (see :mod:`repro.net.subsystem`)."""

    name = "replication"

    def __init__(self, cluster, config):
        self.cluster = cluster
        self.config = config
        cluster.stats.update(site_rehydrations=0, rehydrated_bytes=0)

    def _wire(self, agent):
        manager = agent.subsystem(self.name)
        manager.set_topology(self.cluster.plan.sites)
        return manager

    def cluster_started(self):
        """Pin the site ring on every agent and seed the replica sets.

        The ring comes from the static partition plan, so every site
        (and every future asker) agrees on who replicates whom without
        a membership protocol.  The bootstrap push runs over whatever
        network the cluster currently has -- for a TcpCluster that is
        the in-process loopback, before any socket exists.
        """
        managers = [self._wire(agent)
                    for agent in self.cluster.agents.values()]
        for manager in managers:
            manager.replicate_owned()

    def site_restarted(self, agent):
        self._wire(agent).replicate_owned()

    def restore_site(self, site):
        """Rebuild a dead site's fragment from its replicas, or ``None``.

        Asks each of the site's ring-successor peers for their full
        replica copy and merges the answers.  Succeeds only when the
        merged copy covers **every** node the partition plan assigns to
        the site (anything less would restart the owner with silent
        holes); on success the owned paths are promoted and the
        database is ready to serve -- typically fresher than the last
        checkpoint, and available even without durability.
        """
        cluster = self.cluster
        owned = sorted(
            (path for path, owner in cluster.owner_map.items()
             if owner == site),
            key=len,
        )
        if not owned:
            return None
        database = None
        received = 0
        for peer in replica_peers(site, cluster.plan.sites, self.config.k):
            if peer not in cluster.agents:
                continue
            message = RehydrateRequest(site, sender=site)
            try:
                # Straight onto the wire: the site being rebuilt has no
                # agent yet, so no ``agent.request`` and no breakers.
                reply = cluster.network.request(site, peer, message)
            except (OSError, NetError):
                continue
            if not isinstance(reply, RehydrateAnswer) or \
                    reply.fragment is None:
                continue
            received += reply.encoded_size()
            if database is None:
                database = SensorDatabase(reply.fragment.copy(),
                                          clock=cluster.clock, site_id=site)
            else:
                database.store_fragment(reply.fragment)
        if database is None:
            return None
        for path in owned:
            element = database.find(path)
            if element is None or \
                    not get_status(element).has_local_information:
                # The replicas do not cover the whole fragment: fall
                # back to WAL replay rather than restart with holes.
                return None
        for path in owned:
            database.mark_owned(path)
        cluster.stats["site_rehydrations"] += 1
        cluster.stats["rehydrated_bytes"] += received
        return database

    def rollup(self, totals):
        """Lag is a mean and a maximum across sites, not a sum."""
        lag_count = totals.get("lag_count", 0)
        totals["replication_lag_mean"] = (
            round(totals["lag_total"] / lag_count, 6) if lag_count else 0.0)
        totals["replication_lag_max"] = max(
            (site["lag_max"] for site in totals["sites"].values()),
            default=0.0)
        for per_site_only in ("lag_max", "k"):
            totals.pop(per_site_only, None)
        return totals
