"""The subsystem seam: how machinery beside the query path plugs in.

The organizing agent does the paper's four jobs -- answer queries,
cache what passes through, apply or forward updates, migrate ownership.
Everything else (hierarchical aggregation, continuous queries, read
replication, the load balancer, the durability journal) is a
*subsystem*: an object registered in a :class:`HookTable`, which the
agent (or the cluster) calls at fixed points and otherwise knows
nothing about.

Every agent and cluster builds aggregation and continuous queries.
An opt-in subsystem is on iff its config object is passed in
``OAConfig(subsystems=...)`` / ``Cluster(subsystems=...)``.  The config
builds the parts: ``site_subsystem(agent)`` and
``cluster_subsystem(cluster)``, each returning the part or ``None``.
A part carries a ``name`` (the key of ``agent.subsystem(name)`` /
``cluster.subsystem(name)`` and of its metrics section) and defines
only the hooks it needs -- an undefined hook costs nothing, its
listener list simply stays empty.

Per-agent part, fired by the agent in registration order
(:data:`SITE_HOOKS`):

``on_update(id_path)``
    a sensor update was applied to an owned node;
``on_ownership_change(paths, gained, peer)``
    a migration flipped: *paths* came here from (``gained``) or were
    handed to *peer*;
``on_dispatch_failure(target, subqueries, attempts, causes)``
    a subquery group exhausted its retry budget against *target*;
    return one reply per subquery to answer for it, or ``None``;
``flush()`` / ``close(final_checkpoint)`` / ``abort()``
    lifecycle: drain to disk, graceful teardown, crash-style teardown.

Also per agent, read rather than fired: ``handlers()`` -- ``{message
class: handler(message) -> reply}``, the wire kinds the part serves,
merged into the agent's dispatch table at registration; ``metrics()``
-- the site's counters as a flat dict (numeric values are summed into
the cluster-wide section); ``explain(context)`` -- annotate an EXPLAIN
run (:class:`repro.obs.explain.ExplainContext`).

Per-cluster part, fired by the cluster (:data:`CLUSTER_HOOKS`):

``cluster_started()``
    every agent exists and is registered on the network;
``restore_site(site)``
    a killed site is restarting: return its rebuilt
    :class:`~repro.core.database.SensorDatabase`, or ``None``;
``site_restarted(agent)``
    the restarted site's new agent is live;
``close()``
    the cluster is shutting down.

Also per cluster, read by the metrics registry: ``rollup(totals)`` --
post-process the summed per-site ``metrics()`` into the cluster-wide
section (derived ratios, cluster-level counters).
"""

SITE_HOOKS = ("on_update", "on_ownership_change", "on_dispatch_failure",
              "flush", "close", "abort")
CLUSTER_HOOKS = ("cluster_started", "restore_site", "site_restarted",
                 "close")


class HookTable:
    """Registered subsystems by name, plus one listener list per hook."""

    def __init__(self, hooks):
        self.by_name = {}
        self.listeners = {hook: [] for hook in hooks}

    def register(self, subsystem):
        """Add *subsystem*; every hook it defines joins that hook's list."""
        if subsystem.name in self.by_name:
            raise ValueError(
                f"subsystem {subsystem.name!r} is already registered")
        self.by_name[subsystem.name] = subsystem
        for hook, listeners in self.listeners.items():
            listener = getattr(subsystem, hook, None)
            if listener is not None:
                listeners.append(listener)

    def fire(self, hook, *args, **kwargs):
        """Call every listener of *hook*, in registration order."""
        for listener in self.listeners[hook]:
            listener(*args, **kwargs)
