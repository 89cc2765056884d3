"""Read replication: k-replica ownership, freshness failover, recovery.

The tentpole robustness property, exercised end to end: owners push
their fragments to the k ring-successor peers; when a gather exhausts
its retries against a dead owner, the asker serves the region from a
replica **only** when the copy's stamps satisfy the query's freshness
bound (annotated ``served_by_replica``); a too-stale copy degrades to
the ordinary partial answer annotated ``replica_too_stale``; and a
site restarting after a kill rehydrates its fragment from peer
replicas before falling back to WAL replay.  With the subsystem
disabled the wire is byte-identical to a replication-free build.
"""

import pytest

from repro.core import PartitionPlan
from repro.core.status import Status, get_status
from repro.net import (
    BreakerPolicy,
    Cluster,
    FaultyNetwork,
    LoopbackNetwork,
    OAConfig,
)
from repro.core.errors import QueryRoutingError
from repro.net.tcpruntime import TcpCluster
from repro.replication import (
    ReplicationConfig,
    freshness_bound,
    replica_peers,
)
from repro.xmlkit import parse_fragment

from tests.conftest import (
    FIGURE2_QUERY,
    OAKLAND,
    PAPER_DOCUMENT,
    id_path,
)
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    SHADY_BLOCK,
    answer_set,
    fast_retries,
)

FRESH_OAK_BLOCK = OAK_BLOCK + "[timestamp() > current-time() - 30]"


def replicated_cluster(k=2, network=None, clock=None, oa_config=None,
                       durability=None, count_bytes=False):
    return Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=oa_config or OAConfig(retry_policy=fast_retries()),
        network=network, clock=clock, count_bytes=count_bytes,
        durability=durability,
        subsystems=[ReplicationConfig(k=k)],
    )


class TestReplicaRing:
    SITES = ["etna", "oak", "shady", "top"]

    def test_ring_successors(self):
        assert replica_peers("oak", self.SITES, 2) == ["shady", "top"]
        assert replica_peers("top", self.SITES, 2) == ["etna", "oak"]
        assert replica_peers("shady", self.SITES, 1) == ["top"]

    def test_k_capped_by_ring_size(self):
        assert replica_peers("oak", self.SITES, 99) == \
            ["shady", "top", "etna"]

    def test_degenerate_rings(self):
        assert replica_peers("oak", self.SITES, 0) == []
        assert replica_peers("ghost", self.SITES, 2) == []
        assert replica_peers("solo", ["solo"], 2) == []

    def test_order_independent_of_input_order(self):
        shuffled = ["top", "shady", "etna", "oak"]
        assert replica_peers("oak", shuffled, 2) == \
            replica_peers("oak", self.SITES, 2)

    def test_config_disabled_when_k_zero(self):
        assert not ReplicationConfig(k=0).enabled
        assert ReplicationConfig(k=1).enabled


class TestFreshnessBound:
    def test_unconstrained_query_has_no_bound(self):
        assert freshness_bound(OAK_BLOCK) is None

    def test_canonical_consistency_predicate(self):
        assert freshness_bound(FRESH_OAK_BLOCK) == 30.0

    def test_tightest_bound_wins(self):
        query = ("/usRegion[@id='NE'][timestamp() > current-time() - 120]"
                 "/state[@id='PA'][timestamp() > current-time() - 45]")
        assert freshness_bound(query) == 45.0

    def test_scalar_wrapper_unwrapped(self):
        assert freshness_bound(f"count({FRESH_OAK_BLOCK})") == 30.0

    def test_garbage_is_unbounded(self):
        assert freshness_bound("not an xpath ((((") is None


class TestFailoverServesFreshReplica:
    """Owner crash mid-gather: the replica's answer is byte-identical."""

    def _cluster(self):
        network = FaultyNetwork(LoopbackNetwork(), seed=0)
        cluster = replicated_cluster(k=2, network=network)
        cluster.bind_lifecycle(network)
        return cluster, network

    def test_replica_answer_matches_owner_answer(self):
        cluster, network = self._cluster()
        baseline, _, outcome = cluster.query(FIGURE2_QUERY, at_site="top")
        assert outcome.complete

        network.kill_agent("oak")
        results, _, failed_over = cluster.query(FIGURE2_QUERY,
                                                at_site="top")
        assert failed_over.complete
        assert answer_set(results) == answer_set(baseline)
        report = failed_over.completeness_report()
        assert report["complete"] is True
        assert report["unreachable"] == []
        [served] = report["served_by_replica"]
        assert served["owner"] == "oak"
        assert served["replica"] in ("shady", "top")
        served_path = tuple(map(tuple, served["id_path"]))
        assert served_path[:len(OAKLAND)] == OAKLAND

    def test_failover_counters_and_driver_stats(self):
        cluster, network = self._cluster()
        network.kill_agent("oak")
        cluster.query(OAK_BLOCK, at_site="top")
        top = cluster.agent("top")
        counters = top.subsystem("replication").metrics()
        assert counters["failover_attempts"] >= 1
        assert counters["failover_served"] >= 1
        assert top.driver.stats["replica_served"] >= 1

    def test_nested_query_fails_over_to_replica(self):
        """Every gather ask is a location path, so a nested query's asks
        are served from a replica like any other."""
        from repro.core import Subquery, render_id_path_query
        from repro.core.gather import ReplicaServed

        nested = OAK_BLOCK + "/parkingSpace[not(price > ../parkingSpace/price)]"
        cluster, _network = self._cluster()
        baseline, _, _ = cluster.query(nested, at_site="top")

        cluster, network = self._cluster()
        network.kill_agent("oak")
        results, _, outcome = cluster.query(nested, at_site="top")
        assert outcome.complete
        assert answer_set(results) == answer_set(baseline) != set()
        [served] = outcome.completeness_report()["served_by_replica"]
        assert served["owner"] == "oak"

        fetch = Subquery(render_id_path_query(OAKLAND), OAKLAND,
                         Subquery.NESTED_FETCH, subtree=True)
        [reply] = cluster.agent("top").subsystem(
            "replication").on_dispatch_failure(
                "oak", [fetch], attempts=3, causes=["dead"])
        assert isinstance(reply, ReplicaServed)
        assert reply.owner == "oak"


class TestStaleReplicaDegrades:
    def _aged_cluster(self):
        clock = {"now": 0.0}
        network = FaultyNetwork(LoopbackNetwork(), seed=0)
        cluster = replicated_cluster(k=2, network=network,
                                     clock=lambda: clock["now"])
        cluster.bind_lifecycle(network)
        return cluster, network, clock

    def test_stale_copy_refused_and_annotated(self):
        cluster, network, clock = self._aged_cluster()
        network.kill_agent("oak")
        clock["now"] = 100.0  # replica stamps are from t=0

        results, _, outcome = cluster.query(FRESH_OAK_BLOCK, at_site="top")
        assert not outcome.complete
        assert results == []
        report = outcome.completeness_report()
        assert report["served_by_replica"] == []
        [stale] = report["replica_too_stale"]
        assert any("too stale" in cause for cause in stale["causes"])
        # Excised like an unreachable region, but reported under its
        # own heading -- not double-counted as plain unreachable.
        assert report["unreachable"] == []
        top = cluster.agent("top")
        assert top.subsystem("replication").metrics()[
            "replica_too_stale"] >= 1

    def test_unbounded_query_accepts_old_copy(self):
        cluster, network, clock = self._aged_cluster()
        baseline, _, _ = cluster.query(OAK_BLOCK, at_site="top")
        cluster2, network2, clock2 = self._aged_cluster()
        network2.kill_agent("oak")
        clock2["now"] = 100.0
        results, _, outcome = cluster2.query(OAK_BLOCK, at_site="top")
        assert outcome.complete
        assert answer_set(results) == answer_set(baseline)
        [served] = outcome.completeness_report()["served_by_replica"]
        assert served["age"] == pytest.approx(100.0)


class TestDoubleFailureTerminates:
    def test_owner_and_replica_both_dead_degrades(self):
        network = FaultyNetwork(LoopbackNetwork(), seed=0)
        cluster = replicated_cluster(k=1, network=network)
        cluster.bind_lifecycle(network)
        # oak's only replica (k=1) is shady; kill both.
        network.kill_agent("oak")
        network.kill_agent("shady")
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert not outcome.complete
        assert results == []
        report = outcome.completeness_report()
        assert report["replica_too_stale"] == []
        assert report["served_by_replica"] == []
        assert len(report["unreachable"]) == 1
        assert outcome.unreachable_paths

    def test_strict_mode_raises_when_no_fresh_replica(self):
        """There is no strict mode any more: with the owner and its
        replica dead the report carries both refusals, in order."""
        network = FaultyNetwork(LoopbackNetwork(), seed=0)
        cluster = replicated_cluster(k=1, network=network)
        cluster.bind_lifecycle(network)
        network.kill_agent("oak")
        network.kill_agent("shady")
        _, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        [miss] = outcome.completeness_report()["unreachable"]
        assert tuple(tuple(entry) for entry in miss["id_path"]) == OAKLAND
        assert "SiteDown" in miss["causes"][0]
        assert miss["causes"][-1] == \
            "no replica of site 'oak' holds the region"


class TestWireParity:
    """Replication off leaves the wire byte-identical (the golden
    capture lives in ``tests/test_subsystem_seam.py``)."""

    QUERIES = (FIGURE2_QUERY, SHADY_BLOCK, OAK_BLOCK)

    def _traffic(self, subsystems):
        cluster = Cluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
            oa_config=OAConfig(retry_policy=fast_retries()),
            count_bytes=True, subsystems=subsystems)
        for query in self.QUERIES:
            cluster.query(query, at_site="top")
        cluster.scalar(f"count({OAK_BLOCK})", at_site="top")
        return (cluster.network.traffic.messages,
                cluster.network.traffic.bytes)

    def test_enabled_config_does_add_traffic(self):
        # Guard the guard: the parity assertion is vacuous if enabling
        # the subsystem were also traffic-neutral.
        enabled = self._traffic([ReplicationConfig(k=2)])
        absent = self._traffic([])
        assert enabled[1] > absent[1]


class TestPeerRehydration:
    def test_restart_without_durability_rehydrates(self):
        cluster = replicated_cluster(k=2)
        baseline, _, _ = cluster.query(OAK_BLOCK, at_site="top")
        cluster.kill_site("oak")
        agent = cluster.restart_site("oak")
        assert cluster.stats["site_rehydrations"] == 1
        assert cluster.stats["rehydrated_bytes"] > 0
        # Ownership is restored, not just cached data.
        element = agent.database.find(OAKLAND)
        assert get_status(element) is Status.OWNED
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert outcome.complete
        assert answer_set(results) == answer_set(baseline)

    def test_restart_without_durability_or_replicas_still_fails(self):
        cluster = replicated_cluster(k=1)
        cluster.kill_site("oak")
        cluster.kill_site("shady")  # oak's only replica
        with pytest.raises(QueryRoutingError):
            cluster.restart_site("oak")

    def test_rehydrated_restart_checkpoints_over_stale_wal(self, tmp_path):
        from repro.durability import DurabilityConfig

        cluster = replicated_cluster(
            k=2,
            durability=DurabilityConfig(directory=str(tmp_path / "wal"),
                                        sync_every=0))
        cluster.kill_site("oak")
        agent = cluster.restart_site("oak")
        # Peer copies win over checkpoint+WAL; the rehydrated state is
        # re-checkpointed so a second crash does not replay a stale
        # journal over it.
        assert cluster.stats["site_rehydrations"] == 1
        assert agent.subsystem("durability").metrics()[
            "checkpoints_written"] >= 1
        _, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert outcome.complete

    def test_wal_fallback_when_replicas_unreachable(self, tmp_path):
        from repro.durability import DurabilityConfig

        network = FaultyNetwork(LoopbackNetwork(), seed=0)
        cluster = replicated_cluster(
            k=1, network=network,
            durability=DurabilityConfig(directory=str(tmp_path / "wal"),
                                        sync_every=0))
        cluster.bind_lifecycle(network)
        network.kill_agent("oak")
        network.kill_agent("shady")  # oak's only replica
        network.restart_agent("oak")
        # No replica answered: the site recovered from WAL+checkpoint.
        assert cluster.stats["site_rehydrations"] == 0
        agent = cluster.agent("oak")
        assert agent.subsystem("durability").metrics()["recoveries"] == 1
        assert get_status(agent.database.find(OAKLAND)) is Status.OWNED


class TestVersionStamps:
    def test_reordered_older_batch_is_dropped(self):
        cluster = replicated_cluster(k=2)
        oak = cluster.agent("oak")
        shady = cluster.agent("shady")
        from repro.replication import ReplicateMessage

        manager = shady.subsystem("replication")
        before = manager.stats["replica_batches_stale_dropped"]
        current = oak.database.root.subtree_version
        stale = ReplicateMessage(
            "oak", None,
            {OAKLAND: (0.0, current - 1000)}, sender="oak")
        assert manager.accept(stale) == 0
        assert manager.stats["replica_batches_stale_dropped"] == before + 1

    def test_update_triggers_re_replication(self):
        cluster = replicated_cluster(k=2)
        oak = cluster.agent("oak")
        manager = oak.subsystem("replication")
        batches_before = manager.stats["replicated_batches"]
        space = OAKLAND + (("block", "1"), ("parkingSpace", "1"))
        from repro.net.messages import UpdateMessage

        oak.handle_message(UpdateMessage(
            space, values={"available": "no"}, sender="sensor"))
        assert manager.stats["replicated_batches"] > batches_before


class TestTcpReplication:
    def _tcp(self):
        return TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
            oa_config=OAConfig(retry_policy=fast_retries(),
                               breaker=BreakerPolicy(failure_threshold=3,
                                                     reset_timeout=0.05)),
            subsystems=[ReplicationConfig(k=2)])

    def test_kill_failover_restart_over_sockets(self):
        with self._tcp() as tcp:
            baseline, _, outcome = tcp.cluster.query(FIGURE2_QUERY,
                                                     at_site="top")
            assert outcome.complete
            tcp.kill_site("oak")
            results, _, failed_over = tcp.cluster.query(FIGURE2_QUERY,
                                                        at_site="top")
            assert failed_over.complete
            assert answer_set(results) == answer_set(baseline)
            [served] = \
                failed_over.completeness_report()["served_by_replica"]
            assert served["owner"] == "oak"

            tcp.restart_site("oak")
            assert tcp.cluster.stats["site_rehydrations"] == 1
            results, _, healed = tcp.cluster.query(FIGURE2_QUERY,
                                                   at_site="top")
            assert healed.complete
            assert answer_set(results) == answer_set(baseline)


class TestObservability:
    def test_metrics_surfaces(self):
        cluster = replicated_cluster(k=2)
        cluster.query(FIGURE2_QUERY, at_site="top")
        metrics = cluster.metrics()
        assert metrics["replication"]["replicated_batches"] > 0
        assert set(metrics["health"]) == set(cluster.agents)
        site = metrics["sites"]["oak"]["replication"]
        assert site["peers"] == ["shady", "top"]

    def test_disabled_cluster_has_health_but_no_replication(self):
        cluster = Cluster(parse_fragment(PAPER_DOCUMENT),
                          PartitionPlan(PAPER_PLAN),
                          oa_config=OAConfig(retry_policy=fast_retries()))
        metrics = cluster.metrics()
        assert "replication" not in metrics
        assert set(metrics["health"]) == set(cluster.agents)

    def test_explain_lists_failover_candidates(self):
        cluster = replicated_cluster(k=2)
        report = cluster.explain(FIGURE2_QUERY)
        assert report.sections["replication"]["k"] == 2
        oak_entries = [entry for entry in report.plan
                       if entry["target"] == "oak"]
        assert oak_entries
        assert all(entry["replicas"] == ["shady", "top"]
                   for entry in oak_entries)
        rendered = report.render()
        assert "failover: shady, top" in rendered
        assert "replication: k=2" in rendered
        assert report.to_dict()["replication"]["enabled"] is True
