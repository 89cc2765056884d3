"""The cluster-level half of read replication: ring wiring, recovery.

One :class:`ReplicationRing` per cluster pins the site ring on every
agent's :class:`~repro.replication.manager.ReplicationManager`, seeds
the ring peers' copies, and rebuilds a restarting site's fragment from
its peers' copies.
"""

import functools

from repro.core.database import SensorDatabase
from repro.core.status import get_status
from repro.core.subquery import render_id_path_query
from repro.net.errors import NetError
from repro.net.oa import ask
from repro.replication.manager import replica_peers


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
        """Pin the site ring on every agent and seed the peers' copies.

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
        """The restarted site pushes its own data to its ring, and every
        live owner whose ring includes it pushes again: the copies it
        held died with it."""
        self._wire(agent).replicate_owned()
        site = agent.site_id
        for owner, other in self.cluster.agents.items():
            if owner != site and site in replica_peers(
                    owner, self.cluster.plan.sites, self.config.k):
                other.subsystem(self.name).replicate_owned(peers=[site])

    def restore_site(self, site):
        """Rebuild a dead site's fragment from its ring peers, or ``None``.

        Asks each of the site's ring peers for every owned top path with
        one ``no_forward`` query, and merges the answers.  Succeeds only
        when the merged copy covers **every** node the partition plan
        assigns to the site (anything less would restart the owner with
        silent holes); on success the owned paths are promoted and the
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
        tops = []
        for path in owned:  # shortest first
            if not any(path[:len(top)] == top for top in tops):
                tops.append(path)
        queries = [render_id_path_query(path) for path in tops]
        (root_tag, root_id), = next(
            path for path in cluster.owner_map if len(path) == 1)
        database = SensorDatabase.empty(root_tag, root_id,
                                        clock=cluster.clock, site_id=site)

        def request(peer, message, _expect):
            # Straight onto the wire: the site being rebuilt has no agent
            # yet, so no ``agent.request`` and no breakers.
            return cluster.network.request(site, peer, message)

        received = 0
        for peer in replica_peers(site, cluster.plan.sites, self.config.k):
            if peer not in cluster.agents:
                continue
            try:
                reply = ask(functools.partial(request, peer), queries,
                            cluster.clock(), site, no_forward=True)
            except (OSError, NetError):
                continue
            received += reply.encoded_size()
            for answer in reply.answers:
                if answer.value is not None:
                    database.store_fragment(answer.value)
        for path in owned:
            element = database.find(path)
            if element is None or \
                    not get_status(element).has_local_information:
                # The peers' copies do not cover the whole fragment:
                # fall back to WAL replay rather than restart with holes.
                return None
        for path in owned:
            database.mark_owned(path)
        cluster.stats["site_rehydrations"] += 1
        cluster.stats["rehydrated_bytes"] += received
        return database

