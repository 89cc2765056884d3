"""Unified metrics: every stats surface behind one snapshot call.

The repo grew several ad-hoc metric surfaces -- the per-database
``stats`` dicts, per-subsystem counters, and the DNS/connection-pool
stats dicts.  This module puts one snapshot in front of all of them:

* **Sections**: :func:`site_metrics` / :func:`cluster_metrics` (behind
  ``OrganizingAgent.metrics()`` / ``Cluster.metrics()``) return one
  nested dict, a section per surface, each section a snapshot of the
  live dict its owner already keeps -- so legacy readers and the
  unified snapshot always agree.  A section whose collector raises is
  reported in-band as ``{"error": ...}`` instead of breaking the whole
  snapshot.  ``docs/OBSERVABILITY.md`` tabulates the keys;
  ``tests/test_obs_registry.py::test_metrics_schema`` pins them.
* **Aggregation helpers**: :func:`sum_numeric` / :func:`sum_per_site`
  (the one "sum the numeric keys, keep per-site snapshots" rule that
  every subsystem's ``metrics()`` hook feeds) and the engine / fault
  roll-ups built on it.
"""

from repro.obs.runtime import runtime_counters


def _snapshot(collectors):
    """``{section: collect()}`` in section-name order."""
    out = {}
    for name, collect in sorted(collectors.items()):
        try:
            out[name] = collect()
        except Exception as exc:
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


# ----------------------------------------------------------------------
# Canonical aggregations
# ----------------------------------------------------------------------
def _values(mapping_or_iterable):
    if hasattr(mapping_or_iterable, "values"):
        return mapping_or_iterable.values()
    return mapping_or_iterable


def sum_numeric(snapshots, keys=None):
    """Key-wise sum of the numeric values across *snapshots* (dicts).

    With *keys* only those are summed and each is present (zero when no
    snapshot carries it); without, every top-level ``int``/``float``
    value is (``bool`` flags, lists and nested dicts are skipped).
    """
    totals = dict.fromkeys(keys, 0) if keys is not None else {}
    for snapshot in snapshots:
        for key in (snapshot if keys is None else keys):
            value = snapshot.get(key, 0)
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def sum_per_site(snapshots):
    """Cluster-wide totals of one subsystem's per-site ``metrics()``.

    *snapshots* maps site -> that site's flat counters dict.  Numeric
    keys are summed; the per-site dicts are kept under ``sites``.  With
    no sites the result is just ``{"sites": {}}``.
    """
    totals = sum_numeric(snapshots.values())
    totals["sites"] = dict(sorted(snapshots.items()))
    return totals


def process_memo_counters():
    """The process-wide canonicalizer memo and compile-key snapshots
    every site shares: tagged ``scope: process``, never summed per site."""
    from repro.core.qeg import pattern_key_stats
    from repro.core.semcache import canonicalization_stats

    return {"canonicalizer": dict(canonicalization_stats(), scope="process"),
            "compile_keys": dict(pattern_key_stats(), scope="process")}


def engine_counters(databases):
    """Aggregate hot-path engine counters across site databases.

    Sums the id-path index hit/miss/rebuild counters of every
    :class:`~repro.core.database.SensorDatabase` in *databases* (a
    mapping of site -> database or an iterable of databases) and
    snapshots the process-wide serialization reuse counters and
    :func:`process_memo_counters`.
    """
    from repro.xmlkit.serializer import serialization_stats

    totals = sum_numeric(
        (database.stats for database in _values(databases)),
        keys=("index_hits", "index_misses", "index_rebuilds"))
    serialization = serialization_stats()
    reused = serialization["cache_hits"]
    rebuilt = serialization["cache_misses"]
    totals["serialization_reused"] = reused
    totals["serialization_rebuilt"] = rebuilt
    total_lookups = totals["index_hits"] + totals["index_misses"]
    totals["index_hit_ratio"] = (
        round(totals["index_hits"] / total_lookups, 3)
        if total_lookups else 0.0
    )
    totals["serialization_reuse_ratio"] = (
        round(reused / (reused + rebuilt), 3) if reused + rebuilt else 0.0
    )
    totals.update(process_memo_counters())
    return totals


def fault_counters(agents):
    """Aggregate the fault-handling counters across organizing agents.

    Sums each OA's retry/failure/breaker/DNS-refresh stats and its
    gather driver's degradation counters, and merges every per-peer
    circuit-breaker snapshot into ``breakers`` (keyed
    ``observing_site -> peer``).
    """
    agents = list(_values(agents))
    totals = sum_numeric(
        (agent.stats for agent in agents),
        keys=("retries", "subquery_failures", "circuit_fast_fails",
              "dns_refreshes"))
    totals.update(sum_numeric(
        (getattr(agent.driver, "stats", {}) for agent in agents),
        keys=("failed_subqueries", "partial_gathers")))
    breakers = {}
    for agent in agents:
        snapshot = agent.health_snapshot()
        if snapshot:
            breakers[agent.site_id] = snapshot
    totals["breakers"] = breakers
    return totals


def subsystem_collectors(agent):
    """``{name: metrics}`` for *agent*'s subsystems that define the
    ``metrics()`` hook (see :mod:`repro.net.subsystem`)."""
    return {
        name: subsystem.metrics
        for name, subsystem in agent.subsystems.items()
        if hasattr(subsystem, "metrics")
    }


def _subsystem_section(cluster, name):
    snapshots = {}
    for site, agent in cluster.agents.items():
        collect = getattr(agent.subsystem(name), "metrics", None)
        if collect is not None:
            snapshots[site] = collect()
    totals = sum_per_site(snapshots)
    rollup = getattr(cluster.subsystem(name), "rollup", None)
    return rollup(totals) if rollup is not None else totals


def site_metrics(agent):
    """One OA's unified snapshot (used by ``OrganizingAgent.metrics``).

    The migration stats (migrations in/out/aborted) are part of
    ``oa``; ``load`` adds the
    per-path load attribution figures.  One more section per registered
    subsystem that reports metrics (aggregation and continuous queries
    always; durability, replication, ... when on).
    """
    return _snapshot({
        "oa": lambda: dict(agent.stats),
        "gather": lambda: dict(agent.driver.stats),
        "database": lambda: dict(agent.database.stats),
        "dns_cache": lambda: dict(agent.resolver.stats),
        "engine": agent.engine_counters,
        "breakers": agent.health_snapshot,
        "load": agent.load.counters,
        **subsystem_collectors(agent),
    })


def cluster_metrics(cluster):
    """Cluster-wide unified snapshot (used by ``Cluster.metrics``).

    Besides the cluster's own sections: one summed section per
    subsystem any site runs -- the per-site sum of its ``metrics()``
    hook, post-processed by the subsystem's cluster-level ``rollup()``
    when it has one -- every site's own snapshot under ``sites``, and
    the process's garbage-collector gauge under ``runtime``.
    """
    network = cluster.network
    agents = cluster.agents
    collectors = {
        "cluster": lambda: dict(cluster.stats),
        "dns_server": lambda: dict(cluster.dns.stats),
        "traffic": network.traffic.summary,
        "engine": lambda: engine_counters(
            agent.database for agent in agents.values()),
        "faults": lambda: fault_counters(agents),
        # Unlike ``faults["breakers"]`` every live site is present (an
        # empty dict before it tracked a peer): dashboards rely on it.
        "health": lambda: {site: agent.health_snapshot()
                           for site, agent in sorted(agents.items())},
        "runtime": runtime_counters,
        "sites": lambda: {site: site_metrics(agent)
                          for site, agent in sorted(agents.items())},
    }
    if network.pool_stats:
        collectors["pool"] = lambda: dict(network.pool_stats)
    for name in {name for agent in agents.values()
                 for name in subsystem_collectors(agent)}:
        collectors[name] = lambda name=name: _subsystem_section(cluster, name)
    return _snapshot(collectors)
