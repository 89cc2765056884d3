"""Unified metrics: sections, roll-ups, and the pinned key schema."""

from repro.net import Cluster, FaultyNetwork, LoopbackNetwork
from repro.net.tcpruntime import TcpCluster
from repro.obs.registry import (
    cluster_metrics,
    engine_counters,
    fault_counters,
    site_metrics,
    sum_numeric,
    sum_per_site,
)


class TestRegistry:
    def test_collector_failure_reported_in_band(self, paper_cluster):
        """One section whose collector raises is reported as an
        ``{"error": ...}`` entry; every other section still answers."""

        class Broken:
            name = "broken"

            def metrics(self):
                raise RuntimeError("nope")

        agent = paper_cluster.agents["top"]
        agent._register(Broken())
        snapshot = site_metrics(agent)
        assert "RuntimeError" in snapshot["broken"]["error"]
        assert snapshot["oa"] == agent.stats
        # The cluster roll-up of that subsystem fails the same way, and
        # alone.
        rolled = cluster_metrics(paper_cluster)
        assert "RuntimeError" in rolled["broken"]["error"]
        assert "RuntimeError" in rolled["sites"]["top"]["broken"]["error"]
        assert rolled["cluster"] == paper_cluster.stats


class TestAggregations:
    def test_sum_numeric_skips_flags_lists_and_nested_dicts(self):
        snapshots = [{"hits": 2, "lag": 0.5, "on": True, "peers": ["a"],
                      "nested": {"hits": 9}},
                     {"hits": 3, "lag": 0.25, "extra": 1}]
        assert sum_numeric(snapshots) == \
            {"hits": 5, "lag": 0.75, "extra": 1}
        assert sum_numeric(snapshots, keys=("hits", "absent")) == \
            {"hits": 5, "absent": 0}
        assert sum_numeric([], keys=("hits",)) == {"hits": 0}

    def test_sum_per_site_keeps_the_site_snapshots(self):
        per_site = {"oak": {"hits": 1, "peers": ["top"]},
                    "top": {"hits": 4, "peers": []}}
        assert sum_per_site(per_site) == {"hits": 5, "sites": per_site}
        assert sum_per_site({}) == {"sites": {}}

    def test_aggregators_take_mappings_or_iterables(self, paper_cluster):
        databases = {site: agent.database
                     for site, agent in paper_cluster.agents.items()}
        assert engine_counters(databases) == \
            engine_counters(list(databases.values()))
        assert fault_counters(paper_cluster.agents) == \
            fault_counters(list(paper_cluster.agents.values()))

    def test_site_metrics_absorbs_every_surface(self, paper_cluster):
        agent = paper_cluster.agents["top"]
        paper_cluster.query(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
            "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
            "/block[@id='1']/parkingSpace[available='yes']",
            at_site="top")
        snapshot = site_metrics(agent)
        for section in ("oa", "gather", "database", "dns_cache",
                        "continuous", "engine", "breakers"):
            assert section in snapshot
        # The collectors mirror the live dicts, not stale copies.
        assert snapshot["oa"] == agent.stats
        assert snapshot["gather"]["queries"] >= 1

    def test_cluster_metrics_rolls_up_sites(self, paper_cluster):
        snapshot = cluster_metrics(paper_cluster)
        assert set(snapshot["sites"]) == set(paper_cluster.agents)
        assert "engine" in snapshot and "faults" in snapshot
        assert snapshot["cluster"] == paper_cluster.stats

    def test_cluster_metrics_survives_wrapped_network(self, paper_doc,
                                                      paper_plan):
        network = FaultyNetwork(LoopbackNetwork(), seed=3, drop_rate=0.0)
        cluster = Cluster(paper_doc, paper_plan, network=network)
        snapshot = cluster.metrics()
        # The wrapper hides the traffic log; the snapshot simply omits
        # that section instead of blowing up.
        assert "sites" in snapshot
        assert "dns_server" in snapshot

    def test_agent_and_cluster_methods(self, paper_cluster):
        assert paper_cluster.metrics()["sites"].keys() == \
            paper_cluster.agents.keys()
        agent = paper_cluster.agents["oak"]
        assert agent.metrics()["database"] == agent.database.stats


# ----------------------------------------------------------------------
# The metrics schema (docs/OBSERVABILITY.md section 2 tabulates it)
# ----------------------------------------------------------------------
OA_KEYS = [
    "batches_sent", "circuit_fast_fails", "dns_refreshes",
    "held_updates_forwarded", "held_updates_lost",
    "migration_cache_evictions", "migrations_aborted", "migrations_in",
    "migrations_out", "migrations_released", "retries", "subqueries_sent",
    "subqueries_served", "subquery_failures", "updates_applied",
    "updates_forwarded", "user_queries",
]
CONTINUOUS_KEYS = ["callback_errors", "evaluations", "notifications"]
SITES = ["etna", "oak", "shady", "top"]

#: ``agent.metrics()``: section -> sorted keys.
SITE_SCHEMA = {
    "breakers": [],  # one entry per peer a request was ever sent to
    "continuous": CONTINUOUS_KEYS,
    "database": ["evictions", "fragments_merged", "index_hits",
                 "index_misses", "index_rebuilds", "nodes_refreshed",
                 "nodes_upgraded", "updates_applied"],
    "dns_cache": ["evictions", "hits", "invalidations", "misses"],
    "engine": ["index_hits", "index_misses", "index_rebuilds",
               "serialization"],
    "gather": ["failed_subqueries", "local_hits", "max_fanout",
               "partial_gathers", "prewarm_queries", "queries",
               "replica_served", "rounds", "stale_served", "subqueries_sent"],
    "load": ["anchors", "queries", "unattributed"],
    "oa": OA_KEYS,
    "semcache": ["aggregate", "canonicalizer", "prewarm_queries"],
}

#: ``cluster.metrics()`` on loopback: section -> sorted keys.
CLUSTER_SCHEMA = {
    "cluster": ["client_queries", "lca_cache_hits", "site_kills",
                "site_restarts"],
    "continuous": CONTINUOUS_KEYS + ["sites"],
    "dns_server": ["invalidations", "lookups", "registrations", "remaps",
                   "updates"],
    "engine": ["index_hit_ratio", "index_hits", "index_misses",
               "index_rebuilds", "serialization_rebuilt",
               "serialization_reuse_ratio", "serialization_reused"],
    "faults": ["breakers", "circuit_fast_fails", "dns_refreshes",
               "failed_subqueries", "partial_gathers", "retries",
               "stale_served", "subquery_failures"],
    "health": SITES,
    "semcache": ["bytes", "canonicalizer", "compile_keys", "entries",
                 "evictions", "hit_ratio", "hits", "misses",
                 "prewarm_queries", "stale_rejects", "stores"],
    "sites": SITES,
    "traffic": ["bytes", "links", "messages"],
}

#: What ``TcpCluster.metrics()`` adds to the cluster sections.
TCP_SCHEMA = dict(
    CLUSTER_SCHEMA,
    pool=["connects", "discarded", "reuses", "send_failures",
          "stale_evictions"],
    servers=SITES,
)
SERVER_KEYS = ["admitted", "drain_rejections", "draining", "max_pending",
               "max_queue_depth", "overload_rejections", "oversized_frames",
               "queue_depth"]


def _schema(snapshot):
    return {section: sorted(value) for section, value in snapshot.items()}


def test_metrics_schema(paper_cluster, paper_doc, paper_plan):
    """Every section and key the three ``metrics()`` surfaces returned
    before the registry classes were removed is still returned (the
    tables were generated at that commit)."""
    assert _schema(paper_cluster.agents["top"].metrics()) == SITE_SCHEMA
    snapshot = paper_cluster.metrics()
    assert _schema(snapshot) == CLUSTER_SCHEMA
    for site in SITES:
        assert _schema(snapshot["sites"][site]) == SITE_SCHEMA
    with TcpCluster(paper_doc, paper_plan) as tcp:
        snapshot = tcp.metrics()
    assert _schema(snapshot) == TCP_SCHEMA
    for site in SITES:
        assert sorted(snapshot["servers"][site]) == SERVER_KEYS
