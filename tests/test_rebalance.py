"""Adaptive rebalancing: hot-spot detection, live fragment splits,
ownership migration.

The tentpole robustness loop exercised end to end on the loopback
cluster: skewed query load makes one site hot; the balancer attributes
the load to IDable subtrees, plans a split (lightcurvedb-style
``n_new_fragments`` sizing), and executes a live migration through the
Section-4 push and DNS flip -- after which every site owns exactly
what DNS names it for, queries from every vantage still answer
correctly, the old owner's
semantic/summary caches drop the migrated region, and the new owner
pushes the moved paths to its own replica ring.  With the subsystem disabled the wire is
byte-identical to a rebalancing-free build.
"""

import pytest

from repro.core import PartitionPlan
from repro.core.qeg import query_anchor
from repro.core.status import Status, get_status
from repro.net import Cluster, OAConfig, PathLoadTracker
from repro.obs.registry import sum_per_site
from repro.rebalance import (
    RebalanceConfig,
    detect_overloaded,
    migration_counters,
    plan_moves,
)
from repro.xmlkit import parse_fragment

try:
    from repro.replication import ReplicationConfig, replica_peers
except ModuleNotFoundError:  # the removability drill deleted the package
    ReplicationConfig = replica_peers = None

from tests.conftest import (
    OAKLAND,
    PAPER_DOCUMENT,
    owners_follow_dns,
)
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    answer_set,
    fast_retries,
)

OAK_BLOCK2 = OAK_BLOCK.replace("block[@id='1']", "block[@id='2']")
OAK_BLOCK1_PATH = OAKLAND + (("block", "1"),)


def rebalance_cluster(rebalance=None, replication=None, count_bytes=False,
                      oa_config=None):
    return Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=oa_config or OAConfig(retry_policy=fast_retries()),
        count_bytes=count_bytes,
        subsystems=[config for config in (rebalance, replication)
                    if config is not None],
    )


def tick(cluster):
    """One balancer tick, after which ownership still follows DNS."""
    moves = cluster.subsystem("rebalance").tick()
    assert owners_follow_dns(cluster) == []
    return moves


def skewed_load(cluster, hot=30, warm=10):
    """Hammer Oakland's block 1, with a side of block 2 (so the hot
    site's load is splittable -- a single all-the-load unit cannot be
    improved by moving)."""
    for _ in range(hot):
        cluster.query(OAK_BLOCK)
    for _ in range(warm):
        cluster.query(OAK_BLOCK2)


class TestRebalanceConfig:
    def test_defaults_enabled(self):
        # On iff the config is passed: there is no separate switch.
        assert rebalance_cluster(RebalanceConfig()).subsystem(
            "rebalance") is not None
        assert rebalance_cluster().subsystem("rebalance") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RebalanceConfig(overload_ratio=0.5)
        with pytest.raises(ValueError):
            RebalanceConfig(headroom=0.0)
        with pytest.raises(ValueError):
            RebalanceConfig(max_moves_per_tick=0)


class TestPathLoadTracker:
    def test_queries_attributed_to_anchor(self):
        tracker = PathLoadTracker()
        tracker.record_path(query_anchor(OAK_BLOCK))
        tracker.record_path(query_anchor(OAK_BLOCK))
        snapshot = tracker.snapshot()
        assert snapshot[OAK_BLOCK1_PATH] == 2
        assert tracker.total == 2

    def test_scalar_wrapper_unwrapped(self):
        tracker = PathLoadTracker()
        tracker.record_path(query_anchor(f"count({OAK_BLOCK})"))
        assert tracker.snapshot()[OAK_BLOCK1_PATH] == 1

    def test_unparseable_counts_unattributed(self):
        tracker = PathLoadTracker()
        tracker.record_path(query_anchor("not an xpath (((("))
        assert tracker.snapshot() == {}
        assert tracker.counters()["unattributed"] == 1
        assert tracker.counters()["queries"] == 1

    def test_record_path_direct(self):
        tracker = PathLoadTracker()
        tracker.record_path(OAKLAND)
        assert tracker.snapshot()[OAKLAND] == 1


class TestDetection:
    def test_hot_site_detected(self):
        loads = {"a": 90.0, "b": 10.0, "c": 5.0}
        hot = detect_overloaded(loads, ratio=2.0, min_load=16)
        assert [site for site, _ in hot] == ["a"]

    def test_min_load_gates_idle_clusters(self):
        assert detect_overloaded({"a": 10.0, "b": 0.0},
                                 ratio=2.0, min_load=16) == []

    def test_single_site_never_hot(self):
        assert detect_overloaded({"a": 1e6}, ratio=2.0, min_load=1) == []


class TestPlanMoves:
    LOADS = {"hot": 40.0, "idle1": 0.0, "idle2": 0.0}

    def test_hot_unit_moves_to_least_loaded(self):
        units = {OAK_BLOCK1_PATH: 30.0, OAKLAND + (("block", "2"),): 10.0}
        moves = plan_moves("hot", self.LOADS, units)
        assert moves
        assert moves[0].id_path == OAK_BLOCK1_PATH
        assert moves[0].target in ("idle1", "idle2")

    def test_whole_load_unit_stays_put(self):
        # Relocating all the load helps nobody; the planner refuses.
        assert plan_moves("hot", self.LOADS, {OAK_BLOCK1_PATH: 40.0}) == []

    def test_no_overlapping_moves(self):
        child = OAK_BLOCK1_PATH + (("parkingSpace", "1"),)
        units = {OAK_BLOCK1_PATH: 20.0, child: 15.0,
                 OAKLAND + (("block", "2"),): 5.0}
        moves = plan_moves("hot", self.LOADS, units, max_moves=4)
        chosen = [move.id_path for move in moves]
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert a[:len(b)] != b and b[:len(a)] != a

    def test_targets_restricted_to_live_sites(self):
        units = {OAK_BLOCK1_PATH: 30.0, OAKLAND + (("block", "2"),): 10.0}
        moves = plan_moves("hot", self.LOADS, units, targets={"hot", "idle2"})
        assert all(move.target == "idle2" for move in moves)


class TestLiveMigration:
    def _migrated(self, **kwargs):
        cluster = rebalance_cluster(
            rebalance=RebalanceConfig(min_queries=4, overload_ratio=1.5),
            **kwargs)
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        moves = tick(cluster)
        assert [move.source for move in moves] == ["oak"]
        return cluster, moves[0], baseline

    def test_hot_subtree_migrates(self):
        cluster, move, _ = self._migrated()
        assert move.id_path == OAK_BLOCK1_PATH
        assert cluster.owner_map[OAK_BLOCK1_PATH] == move.target
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == move.target
        # The split: oak keeps its assignment root and block 2.
        assert cluster.owner_map[OAKLAND] == "oak"
        assert cluster.owner_map[OAKLAND + (("block", "2"),)] == "oak"

    def test_ownership_statuses_flip(self):
        cluster, move, _ = self._migrated()
        old = cluster.agents["oak"].database.find(OAK_BLOCK1_PATH)
        new = cluster.agents[move.target].database.find(OAK_BLOCK1_PATH)
        assert get_status(old) is not Status.OWNED
        assert get_status(new) is Status.OWNED

    def test_queries_correct_from_every_vantage(self):
        cluster, move, baseline = self._migrated()
        for site in cluster.agents:
            results, _, outcome = cluster.query(OAK_BLOCK, at_site=site)
            assert outcome.complete
            assert answer_set(results) == baseline

    def test_migration_log_both_sides(self):
        cluster, move, _ = self._migrated()
        [out] = cluster.agents["oak"].migration_log
        assert out["direction"] == "out" and out["peer"] == move.target
        [inbound] = cluster.agents[move.target].migration_log
        assert inbound["direction"] == "in" and inbound["peer"] == "oak"

    def test_explain_annotates_ownership_moved(self):
        cluster, move, _ = self._migrated()
        report = cluster.agents[move.target].explain(OAK_BLOCK)
        [entry] = report.sections["rebalance"]
        assert entry["covers_query"]
        assert "[ownership moved]" in report.render()

    def test_balancer_counters(self):
        cluster, _, _ = self._migrated()
        counters = cluster.subsystem("rebalance").metrics()
        assert counters["hotspots"] == 1
        assert counters["migrations_executed"] == 1
        assert counters["migrations_failed"] == 0
        assert counters["paths_moved"] >= 1

    def test_cluster_metrics_surface(self):
        cluster, move, _ = self._migrated()
        snapshot = cluster.metrics()
        rebalance = snapshot["rebalance"]
        assert rebalance["migrations_out"] == 1
        assert rebalance["migrations_in"] == 1
        assert rebalance["balancer"]["migrations_executed"] == 1
        assert rebalance["tracked_queries"] > 0

    def test_second_tick_is_stable(self):
        # Counters are diffed per tick: the already-served load must
        # not re-trigger a migration of the now-idle subtree.
        cluster, _, _ = self._migrated()
        assert tick(cluster) == []


class TestCacheEviction:
    def test_aggregate_cache_dropped_on_old_owner(self):
        cluster = rebalance_cluster(
            rebalance=RebalanceConfig(min_queries=4, overload_ratio=1.5))
        cluster.scalar(f"count({OAK_BLOCK})", at_site="oak")
        oak = cluster.agents["oak"]
        summaries = oak.subsystem("aggregation").summaries
        assert summaries.metrics()["entries"] == 1
        skewed_load(cluster)
        tick(cluster)
        assert oak.subsystem("aggregation").metrics()[
            "migration_summary_evictions"] == 1
        assert summaries.metrics()["entries"] == 0

    def test_unrelated_entries_survive(self):
        cluster = rebalance_cluster(
            rebalance=RebalanceConfig(min_queries=4, overload_ratio=1.5))
        shady = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Shadyside']/block[@id='1']")
        cluster.scalar(f"count({shady})", at_site="oak")
        oak = cluster.agents["oak"]
        skewed_load(cluster)
        tick(cluster)
        assert oak.subsystem("aggregation").summaries.metrics()[
            "entries"] == 1


@pytest.mark.skipif(ReplicationConfig is None,
                    reason="repro.replication is not installed")
class TestReplicaRePlacement:
    def _cluster(self):
        cluster = rebalance_cluster(
            rebalance=RebalanceConfig(min_queries=4, overload_ratio=1.5),
            replication=ReplicationConfig(k=2))
        cluster.agents["oak"].subsystem("replication").replicate_owned()
        return cluster

    def test_old_ring_keeps_an_ordinary_cached_copy(self):
        # Nothing is retired: the old owner's ring peers keep the moved
        # region as cached data, refreshed by the new owner's pushes
        # where they are its ring peers too.
        cluster = self._cluster()
        sites = sorted(cluster.agents)
        skewed_load(cluster)
        [move] = tick(cluster)
        for peer in replica_peers("oak", sites, 2):
            if peer == move.target:
                continue
            copy = cluster.agents[peer].database.find(OAK_BLOCK1_PATH)
            assert get_status(copy) is Status.COMPLETE

    def test_new_owner_pushes_to_its_ring(self):
        cluster = self._cluster()
        sites = sorted(cluster.agents)
        skewed_load(cluster)
        [move] = tick(cluster)
        for peer in replica_peers(move.target, sites, 2):
            copy = cluster.agents[peer].database.find(OAK_BLOCK1_PATH)
            assert get_status(copy).has_local_information

    def test_query_survives_new_owner_death(self):
        # Kill the NEW owner right after the migration: no query is
        # dropped -- the old owner's demoted copy and the ring replicas
        # between them still answer completely and correctly.
        cluster = self._cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="shady")[0])
        skewed_load(cluster)
        [move] = tick(cluster)
        cluster.kill_site(move.target)
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert outcome.complete
        assert answer_set(results) == baseline

    def test_new_owner_ring_serves_migrated_region(self):
        # The failover machinery itself: with the new owner dead, its
        # ring peers vouch for (and serve) the migrated region they
        # were pushed when the region moved in.
        from repro.core.answer import Subquery

        cluster = self._cluster()
        skewed_load(cluster)
        [move] = tick(cluster)
        cluster.kill_site(move.target)
        asker = cluster.agents["shady"]
        probe = Subquery(OAK_BLOCK, OAK_BLOCK1_PATH, Subquery.INCOMPLETE)
        [reply] = asker.subsystem("replication").on_dispatch_failure(
            move.target, [probe], attempts=3, causes=["dead"])
        from repro.core.gather import SubqueryFailure

        assert not isinstance(reply, SubqueryFailure)


class TestWireParity:
    """Disabled rebalancing leaves the wire byte-identical."""

    def _traffic(self, rebalance, ticks=0, skew=False):
        cluster = rebalance_cluster(rebalance=rebalance, count_bytes=True)
        if skew:
            skewed_load(cluster)
        else:
            cluster.query(OAK_BLOCK, at_site="top")
            cluster.scalar(f"count({OAK_BLOCK})", at_site="top")
        for _ in range(ticks):
            tick(cluster)
        return (cluster.network.traffic.messages,
                cluster.network.traffic.bytes)

    def test_enabled_without_hotspot_is_byte_identical(self):
        # The balancer itself is wire-silent: detection and planning
        # are local; only an executed migration talks.
        absent = self._traffic(None)
        enabled = self._traffic(RebalanceConfig(min_queries=10 ** 6),
                                ticks=3)
        assert enabled == absent

    def test_migration_does_add_traffic(self):
        # Guard the guard: the parity assertions are vacuous if an
        # actual migration were also traffic-neutral.
        quiet = self._traffic(None, skew=True)
        moved = self._traffic(RebalanceConfig(min_queries=4,
                                              overload_ratio=1.5),
                              ticks=1, skew=True)
        assert moved[1] > quiet[1]


class TestRebalanceCountersHelper:
    def test_counts_without_balancer(self):
        cluster = rebalance_cluster()
        cluster.query(OAK_BLOCK, at_site="top")
        totals = sum_per_site({
            site: migration_counters(agent)
            for site, agent in cluster.agents.items()})
        assert totals["migrations_out"] == 0
        assert totals["tracked_queries"] > 0
        assert "balancer" not in totals
