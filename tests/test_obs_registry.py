"""Unified metrics registry: primitives, collectors, snapshots."""

import pytest

from repro.net import Cluster, FaultyNetwork, LoopbackNetwork
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cluster_metrics,
    engine_counters,
    fault_counters,
    site_metrics,
    sum_numeric,
    sum_per_site,
)


class TestPrimitives:
    def test_counter(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_gauge(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5

    def test_histogram_summary(self):
        histogram = Histogram("latency")
        for value in (1, 2, 3, 4):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == 10.0
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 4.0
        assert snapshot["mean"] == 2.5
        assert snapshot["p95"] == 4.0

    def test_histogram_reservoir_is_bounded(self):
        histogram = Histogram("latency", keep_recent=10)
        for value in range(100):
            histogram.observe(value)
        assert histogram.count == 100
        assert len(histogram._recent) == 10
        # Percentiles reflect the most recent window.
        assert histogram.percentile(0.0) == 90.0


class TestRegistry:
    def test_get_or_make_is_idempotent(self):
        registry = MetricsRegistry("r")
        assert registry.counter("a") is registry.counter("a")

    def test_kind_clash_raises(self):
        registry = MetricsRegistry("r")
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_snapshot_includes_primitives_and_collectors(self):
        registry = MetricsRegistry("r")
        registry.counter("hits").inc(3)
        registry.register_collector("legacy", lambda: {"x": 1})
        snapshot = registry.snapshot()
        assert snapshot["hits"] == 3
        assert snapshot["legacy"] == {"x": 1}

    def test_collector_failure_reported_in_band(self):
        registry = MetricsRegistry("r")

        def broken():
            raise RuntimeError("nope")

        registry.register_collector("broken", broken)
        registry.register_collector("fine", lambda: {"ok": True})
        snapshot = registry.snapshot()
        assert "RuntimeError" in snapshot["broken"]["error"]
        assert snapshot["fine"] == {"ok": True}


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
