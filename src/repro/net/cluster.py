"""Cluster assembly: wire a partitioned deployment together.

A :class:`Cluster` takes the global document and a
:class:`~repro.core.partition.PartitionPlan` and produces the whole
running system: per-site databases, organizing agents on a loopback
network, the authoritative DNS server with one record per IDable node,
and a client-side resolver for self-starting distributed queries.

This is the object the examples and integration tests drive; the
discrete-event simulator wraps the same pieces with a cost model.
"""

import copy

from repro.core.errors import QueryRoutingError
from repro.core.partition import PartitionPlan
from repro.core.qeg import query_anchor
from repro.core.schema import HierarchySchema
from repro.net.dns import DnsResolver, DnsServer
from repro.net.messages import QueryMessage
from repro.net.oa import OAConfig, OrganizingAgent
from repro.net.sa import SensingAgent
from repro.net.subsystem import CLUSTER_HOOKS, HookTable
from repro.net.transport import LoopbackNetwork


class Cluster:
    """A complete in-process deployment of the sensor database."""

    def __init__(self, global_document, plan, service="parking",
                 zone="intel-iris.net", oa_config=None, clock=None,
                 count_bytes=False, schema=None, network=None,
                 durability=None, subsystems=()):
        if not isinstance(plan, PartitionPlan):
            plan = PartitionPlan(plan)
        from repro.xmlkit.nodes import Document as _Document

        if isinstance(global_document, _Document):
            global_document = global_document.root
        self.global_document = global_document
        self.plan = plan
        self.clock = clock or (lambda: 0.0)
        self.oa_config = oa_config or OAConfig()
        self.schema = schema or HierarchySchema.from_document(global_document)
        # An injected network (e.g. a FaultyNetwork-wrapped loopback)
        # must still expose register()/request(); anything extra is the
        # wrapper's business.
        self.network = network or LoopbackNetwork(count_bytes=count_bytes)
        self.dns = DnsServer(service=service, zone=zone)
        self.owner_map = plan.owner_map(global_document)
        for path, site in self.owner_map.items():
            self.dns.register_id_path(path, site)

        # Durability: a DurabilityConfig turns on per-site WAL +
        # checkpoints (None leaves agents exactly as before the
        # subsystem existed).
        self.durability_config = durability

        # Opt-in subsystems (repro.net.subsystem): each config object,
        # given here or pre-set on the OA config, builds its per-agent
        # part inside every agent and its per-cluster part below.  The
        # cluster's own list is mirrored onto a copy of the OA config
        # so a shared config object is never mutated.
        if subsystems:
            self.oa_config = copy.copy(self.oa_config)
            self.oa_config.subsystems += tuple(subsystems)

        databases = plan.build_databases(global_document,
                                         default_clock=self.clock)
        self.agents = {}
        for site, database in databases.items():
            self.agents[site] = self._build_agent(site, database)

        #: The :class:`~repro.net.tcpruntime.TcpCluster` hosting the
        #: agents behind sockets, or ``None`` on the loopback network.
        self.runtime = None
        self.client_resolver = DnsResolver(self.dns, clock=self.clock)
        self.sensing_agents = []
        self.stats = {"client_queries": 0, "lca_cache_hits": 0,
                      "site_kills": 0, "site_restarts": 0}
        self._subsystems = HookTable(CLUSTER_HOOKS)
        for config in self.oa_config.subsystems:
            subsystem = config.cluster_subsystem(self)
            if subsystem is not None:
                self._subsystems.register(subsystem)
        self._subsystems.fire("cluster_started")

    def subsystem(self, name):
        """The cluster-level part of subsystem *name*, or ``None``."""
        return self._subsystems.by_name.get(name)

    def _build_agent(self, site, database, prefer_database=False):
        """One OA, durably journalled when durability is configured.

        When the site's durability directory already holds state (a
        restart -- of the single site or of the whole deployment), the
        freshly partitioned *database* is discarded and the agent
        recovers from checkpoint + WAL instead -- unless
        *prefer_database* says the given database is fresher than the
        durable state (peer rehydration; the caller re-checkpoints).
        """
        manager = None
        if self.durability_config is not None:
            # The one subsystem the cluster names: it is what the
            # agent's database comes from, so it has to exist first.
            from repro.durability import DurabilityManager

            manager = DurabilityManager(self.durability_config, site,
                                        clock=self.clock)
            if manager.has_state() and not prefer_database:
                database = None
        resolver = DnsResolver(self.dns, clock=self.clock)
        agent = OrganizingAgent(
            site, database, self.network, resolver,
            schema=self.schema,
            config=self.oa_config,
            clock=self.clock,
            durability=manager,
        )
        # In-process delivery; a no-op for the TCP runtime, which
        # registers addresses instead (TcpCluster handles that).
        self.network.register(site, agent)
        if manager is not None and prefer_database:
            # The given copy supersedes whatever checkpoint + WAL
            # survived a crash; snapshot it so a second crash does not
            # replay a stale journal over the fresher state.
            manager.checkpoint()
        return agent

    def invalidate_resolver_caches(self, name, site):
        """DNS fan-out target: purge *name* from every resolver cache."""
        self.client_resolver.invalidate(name)
        for agent in self.agents.values():
            agent.resolver.invalidate(name)
        for sensing_agent in self.sensing_agents:
            resolver = getattr(sensing_agent, "resolver", None)
            if resolver is not None:
                resolver.invalidate(name)

    # ------------------------------------------------------------------
    @property
    def sites(self):
        return sorted(self.agents)

    def agent(self, site):
        return self.agents[site]

    def database(self, site):
        return self.agents[site].database

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def route_query(self, query):
        """The LCA site a user query should be sent to (Section 3.4).

        The DNS-style name comes from the query itself -- its compiled
        pattern's anchor, no global information -- then is resolved.
        """
        id_path = list(query_anchor(query, self.schema) or ())
        while id_path:
            name = self.dns.name_for(id_path)
            try:
                site, hops = self.client_resolver.resolve(name)
            except Exception:
                id_path = id_path[:-1]
                continue
            if hops == 0:
                self.stats["lca_cache_hits"] += 1
            return site, tuple(id_path)
        # No usable prefix: fall back to the root's owner.
        root_path = next(
            (path for path in self.owner_map if len(path) == 1), None
        )
        if root_path is None:
            raise QueryRoutingError("cluster has no owned nodes")
        site, _hops = self.client_resolver.resolve(
            self.dns.name_for(root_path)
        )
        return site, root_path

    def query(self, query, now=None, at_site=None):
        """Pose a user query; returns ``(results, site, outcome)``.

        With ``at_site`` the query is forced to a specific site (used
        by the micro-benchmarks that artificially route queries higher
        up the hierarchy); otherwise it self-starts at its LCA.
        """
        if at_site is None:
            at_site, _path = self.route_query(query)
        self.stats["client_queries"] += 1
        agent = self.agents[at_site]
        results, outcome = agent.answer_user_query(query, now=now)
        return results, at_site, outcome

    def query_via_messages(self, query, now=None):
        """Pose a user query through the message layer (full wire path)."""
        site, _path = self.route_query(query)
        message = QueryMessage(query, now=now, user=True, sender="client")
        reply = self.network.request("client", site, message)
        return reply.results, site

    def scalar(self, query, now=None, at_site=None, max_age=None):
        """Pose a scalar (boolean/count/sum/...) query.

        *max_age* enables the acceptable-precision extension (Section
        4): a fresh-enough cached aggregate short-circuits the
        distributed gather.  A precision ``p`` under a drift rate ``r``
        is ``max_age = p / r``; the caller does the division.
        """
        if at_site is None:
            at_site, _path = self.route_query(query)
        return self.agents[at_site].answer_scalar(
            query, now=now, max_age=max_age)

    def explain(self, query, analyze=False, now=None):
        """EXPLAIN *query* as the cluster would answer it.

        Routes the query to its LCA site first (the client-side step
        :meth:`query` performs), then builds that site's
        :class:`~repro.obs.explain.ExplainReport` with the routed site
        recorded on the report.
        """
        from repro.obs.explain import build_explain

        site, _path = self.route_query(query)
        return build_explain(self.agents[site], query, analyze=analyze,
                             now=now, routed_site=site)

    def metrics(self):
        """Cluster-wide unified metrics snapshot (one nested dict)."""
        from repro.obs.registry import cluster_metrics

        return cluster_metrics(self)

    def prewarm(self, log, now=None, limit=None):
        """Warm every site's caches by replaying a captured query log.

        *log* is a :class:`~repro.core.semcache.QueryLog` (or iterable
        of query strings); each entry routes to its LCA site and runs
        through that site's gather driver as live traffic would.
        Returns the replay report dict.
        """
        from repro.core.semcache import prewarm

        return prewarm(self, log, now=now, limit=limit)

    # ------------------------------------------------------------------
    # Sensing agents
    # ------------------------------------------------------------------
    def add_sensing_agent(self, agent_id, space_paths, model=None):
        resolver = DnsResolver(self.dns, clock=self.clock)
        agent = SensingAgent(agent_id, space_paths, self.network, resolver,
                             model=model, clock=self.clock)
        self.sensing_agents.append(agent)
        return agent

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def delegate(self, id_path, new_owner):
        """Migrate ownership of *id_path* to *new_owner* (Section 4)."""
        id_path = tuple(tuple(entry) for entry in id_path)
        current = self.owner_map.get(id_path)
        if current is None:
            raise QueryRoutingError(f"unknown node {id_path}")
        moved = self.agents[current].delegate(id_path, new_owner, self.dns)
        for path in moved:
            self.owner_map[path] = new_owner
        return moved

    def subscribe(self, query, callback, fire_immediately=True):
        """Register a continuous query at its LCA's owner (Section 7).

        Returns ``(site, subscription_id)`` for use with
        :meth:`unsubscribe`.
        """
        site, _path = self.route_query(query)
        subscription_id = self.agents[site].continuous.subscribe(
            query, callback, fire_immediately=fire_immediately)
        return site, subscription_id

    def unsubscribe(self, site, subscription_id):
        self.agents[site].continuous.unsubscribe(subscription_id)

    def add_node(self, parent_path, tag, identifier, attributes=None,
                 values=None):
        """Schema evolution: create an IDable node under its parent's
        owner and register it in DNS."""
        parent_path = tuple(tuple(entry) for entry in parent_path)
        owner = self.owner_map.get(parent_path)
        if owner is None:
            raise QueryRoutingError(f"unknown parent {parent_path}")
        element = self.agents[owner].add_node(
            parent_path, tag, identifier, attributes=attributes,
            values=values, dns_server=self.dns)
        new_path = parent_path + ((tag, identifier),)
        self.owner_map[new_path] = owner
        return element

    def remove_node(self, path):
        """Schema evolution: delete an IDable node via its parent's owner."""
        path = tuple(tuple(entry) for entry in path)
        parent_owner = self.owner_map.get(path[:-1])
        if parent_owner is None:
            raise QueryRoutingError(f"unknown parent of {path}")
        removed = self.agents[parent_owner].remove_node(
            path, dns_server=self.dns)
        for removed_path in removed:
            self.owner_map.pop(tuple(tuple(e) for e in removed_path), None)
        return removed

    # ------------------------------------------------------------------
    # Site lifecycle (crash / recovery; graceful teardown)
    # ------------------------------------------------------------------
    def kill_site(self, site):
        """Simulate the OA process at *site* dying abruptly.

        The agent object -- its fragment, cache and subscriptions -- is
        discarded; nothing is flushed or checkpointed beyond what the
        durability layer already put on disk (exactly a SIGKILL's
        view).  DNS keeps routing to the site; peers see connection
        failures until :meth:`restart_site`.
        """
        agent = self.agents.pop(site, None)
        if agent is None:
            raise QueryRoutingError(f"unknown site {site!r}")
        self.network.unregister(site)
        agent.abort()
        self.stats["site_kills"] += 1
        return agent

    def restart_site(self, site):
        """Bring a killed site back.

        A subsystem may rebuild the fragment first (its
        ``restore_site`` hook -- read replication restarts an owner
        from its peers' copies, typically fresher than the last
        checkpoint and available even without durability).  Otherwise
        the site recovers from WAL + checkpoint; with neither, the
        fragment died with the process and only a full redeploy can
        recreate it.  Returns the new agent.
        """
        if site in self.agents:
            raise QueryRoutingError(f"site {site!r} is already running")
        database = None
        for restore in self._subsystems.listeners["restore_site"]:
            database = restore(site)
            if database is not None:
                break
        if database is None and self.durability_config is None:
            raise QueryRoutingError(
                f"cannot restart {site!r}: cluster has no durability "
                "(the fragment died with the agent)")
        agent = self._build_agent(site, database,
                                  prefer_database=database is not None)
        self.agents[site] = agent
        self.stats["site_restarts"] += 1
        self._subsystems.fire("site_restarted", agent)
        return agent

    def bind_lifecycle(self, faulty):
        """Hook a :class:`~repro.net.faults.FaultyNetwork`'s agent-level
        kill/restart injection to this cluster's site lifecycle."""
        faulty.bind_lifecycle(kill=self.kill_site, restart=self.restart_site)
        return faulty

    def shutdown(self, final_checkpoint=True, close_network=True):
        """Graceful teardown: drain every site's WAL, snapshot, close.

        The loopback runtime has no accept loop to stop, so the drain
        is the durability flush; the TCP runtime layers its own
        stop-accepting/finish-in-flight phase on top (see
        :meth:`~repro.net.tcpruntime.TcpCluster.close`).
        """
        self._subsystems.fire("close")
        for agent in self.agents.values():
            agent.shutdown(final_checkpoint=final_checkpoint)
        if close_network:
            self.network.close()

    def validate(self, structural_only=False):
        """Run invariant checks across every site.

        With ``structural_only`` the site fragments are checked against
        the invariants alone (I1/I2, status consistency) without
        comparing content to the bootstrap document -- the right mode
        once sensor updates have changed values.
        """
        from repro.core.invariants import (
            ownership_violations,
            structural_violations,
            validate_deployment,
        )
        from repro.xmlkit.nodes import Document

        databases = {site: a.database for site, a in self.agents.items()}
        if structural_only:
            problems = []
            for site, db in databases.items():
                problems.extend(
                    f"[{site}] {p}" for p in structural_violations(db))
            problems.extend(ownership_violations(databases, self.owner_map))
            return problems
        reference = self.global_document
        if isinstance(reference, Document):
            reference = reference.root
        return validate_deployment(databases, reference, self.owner_map)

    def __repr__(self):
        return f"Cluster(sites={self.sites})"
