"""Read replication: k-replica ownership, freshness failover, recovery.

The tentpole robustness property, exercised end to end: owners push
their fragments into the fragments of their k ring-successor peers, as
ordinary cached copies; when a gather exhausts its retries against a
dead owner, the asker re-sends the ask, flagged ``no_forward``, to those
peers, and serves a peer's answer **only** when the peer's walk -- which
applies the ask's own freshness bound -- left nothing unanswered
(annotated ``served_by_replica``); a too-stale copy degrades to the
ordinary partial answer annotated ``replica_too_stale``; and a site
restarting after a kill rehydrates its fragment from its peers before
falling back to WAL replay.  With the subsystem disabled the wire is
byte-identical to a replication-free build.

With ``k=2`` on the paper deployment oak's peers are shady and top, so
an asker that is to fail over for oak is etna: top and shady answer
oak's region from their own fragments.
"""

import itertools
import statistics
from unittest import mock

import pytest

from repro.agg import SHAPES
from repro.core import PartitionPlan
from repro.core.status import Status, get_status
from repro.net import (
    BreakerPolicy,
    Cluster,
    FaultyNetwork,
    LoopbackNetwork,
    NetError,
    OAConfig,
)
from repro.core.errors import QueryRoutingError
from repro.net.tcpruntime import TcpCluster
from repro.replication import ReplicationConfig, replica_peers
from repro.xmlkit import parse_fragment
from repro.xpath import parser as xpath_parser
from repro.xpath.evaluator import Evaluator

from tests.conftest import (
    FIGURE2_QUERY,
    OAKLAND,
    PAPER_DOCUMENT,
)
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    PREFIX,
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


def _raise_if(condition):
    """An interceptor body: lose the message when *condition* holds."""
    if condition:
        raise OSError("message lost")


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
    """No site extracts a bound any more: the peer's walk applies the
    ask's own consistency predicates to its copy, asked at etna."""

    def _fail_over(self, age, query, scalar=False):
        clock = {"now": 0.0}
        cluster = replicated_cluster(k=2, clock=lambda: clock["now"])
        clock["now"] = age
        cluster.kill_site("oak")
        self.cluster = cluster
        if scalar:
            return cluster, cluster.scalar(query, at_site="etna")
        return cluster, cluster.query(query, at_site="etna")[2]

    def test_canonical_consistency_predicate(self):
        _, outcome = self._fail_over(29.0, FRESH_OAK_BLOCK)
        assert outcome.complete
        [served] = outcome.completeness_report()["served_by_replica"]
        assert served["age"] == pytest.approx(29.0)
        # The predicate is strict: a copy exactly as old as the bound
        # is too stale.
        _, outcome = self._fail_over(30.0, FRESH_OAK_BLOCK)
        assert not outcome.complete
        assert outcome.completeness_report()["replica_too_stale"]

    def test_tightest_bound_wins(self):
        neighborhood = OAK_BLOCK.replace("/block[@id='1']", "")
        for loose, tight in ((120, 45), (45, 120)):
            query = (f"{neighborhood}[timestamp() > current-time() - {loose}]"
                     f"/block[@id='1'][timestamp() > current-time() - {tight}]")
            _, outcome = self._fail_over(40.0, query)
            assert outcome.complete
            _, outcome = self._fail_over(60.0, query)
            report = outcome.completeness_report()
            assert report["served_by_replica"] == []
            assert report["replica_too_stale"]

    def test_a_relay_keeps_why_failover_refused_the_copy(self):
        # Asked at etna, Pittsburgh is top's: top's own failover refuses
        # oak's copy, and etna's report says so, not "unreachable".
        query = FRESH_OAK_BLOCK.replace("[@id='Oakland']", "")
        _, outcome = self._fail_over(40.0, query)
        report = outcome.completeness_report()
        assert report["unreachable"] == []
        [stale] = report["replica_too_stale"]
        assert stale["causes"][-1] == "site 'top' could not reach it"

    def test_scalar_wrapper_unwrapped(self):
        query = f"count({FRESH_OAK_BLOCK}/parkingSpace)"
        cluster, fresh = self._fail_over(10.0, query, scalar=True)
        assert fresh == 2.0
        assert cluster.agent("etna").subsystem("replication").metrics()[
            "failover_served"] == 1
        # Too stale: the region is refused, and a scalar carries no
        # completeness report to say so.
        with pytest.raises(NetError):
            self._fail_over(40.0, query, scalar=True)
        counters = self.cluster.agent("etna").subsystem(
            "replication").metrics()
        assert counters["failover_served"] == 0
        assert counters["replica_too_stale"] == 1


class TestARollupFailsOver:
    """A partial a dead owner cannot send becomes the path ask, which
    failover serves from the owner's ring peer (``k=1``: oak's is
    shady), so every shape answers, asked at etna."""

    PRICES = f"{PREFIX}/neighborhood/block/parkingSpace/price"
    SHAPE_OF = {"count": len, "sum": sum, "avg": statistics.fmean,
                "min": min, "max": max}

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_is_the_evaluators_with_oak_dead(self, shape):
        query = f"{shape}({self.PRICES})"
        cluster = replicated_cluster(k=1, count_bytes=True)
        for agent in cluster.agents.values():
            agent.subsystem("replication").replicate_owned()
        cluster.kill_site("oak")
        traffic = cluster.network.traffic
        before = traffic.messages, traffic.bytes
        with mock.patch("repro.net.messages._SEQUENCE", itertools.count(1)):
            value = cluster.scalar(query, at_site="etna")
        prices = [float(price.string_value()) for price in Evaluator()
                  .evaluate(xpath_parser.parse(self.PRICES),
                            parse_fragment(PAPER_DOCUMENT))]
        assert value == float(self.SHAPE_OF[shape](prices))
        # No more than the walk that answered count/sum before.
        assert traffic.messages - before[0] <= 10
        assert traffic.bytes - before[1] <= 3759
        metrics = cluster.metrics()
        assert metrics["aggregation"]["partial_failures"] == 1
        assert metrics["replication"]["failover_served"] == 1


class TestFailoverServesFreshReplica:
    """Owner crash mid-gather: the replica's answer is byte-identical.
    Asked at etna, which is not one of oak's ring peers."""

    BOTH_BLOCKS = OAK_BLOCK.replace("[@id='1']", "[@id='1' or @id='2']")

    def _cluster(self):
        network = FaultyNetwork(LoopbackNetwork(), seed=0)
        cluster = replicated_cluster(k=2, network=network)
        cluster.bind_lifecycle(network)
        return cluster, network

    def test_replica_answer_matches_owner_answer(self):
        cluster, network = self._cluster()
        baseline, _, outcome = cluster.query(FIGURE2_QUERY, at_site="etna")
        assert outcome.complete

        network.kill_agent("oak")
        results, _, failed_over = cluster.query(FIGURE2_QUERY,
                                                at_site="etna")
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
        cluster.query(OAK_BLOCK, at_site="etna")
        etna = cluster.agent("etna")
        counters = etna.subsystem("replication").metrics()
        assert counters["failover_attempts"] >= 1
        assert counters["failover_served"] >= 1
        assert etna.driver.stats["replica_served"] >= 1

    def test_nested_query_fails_over_to_replica(self):
        """Every gather ask is a location path, so a nested query's asks
        are served from a replica like any other."""
        from repro.core import Subquery, render_id_path_query
        from repro.core.gather import SubqueryFailure

        nested = OAK_BLOCK + "/parkingSpace[not(price > ../parkingSpace/price)]"
        cluster, _network = self._cluster()
        baseline, _, _ = cluster.query(nested, at_site="etna")

        cluster, network = self._cluster()
        network.kill_agent("oak")
        results, _, outcome = cluster.query(nested, at_site="etna")
        assert outcome.complete
        assert answer_set(results) == answer_set(baseline) != set()
        # Both of etna's asks into oak's region -- the residual at
        # Oakland and the block's subtree fetch -- are replica-served.
        served = outcome.completeness_report()["served_by_replica"]
        assert served
        assert all(entry["owner"] == "oak" for entry in served)

        fetch = Subquery(render_id_path_query(OAKLAND), OAKLAND,
                         Subquery.NESTED_FETCH, subtree=True)
        [reply] = cluster.agent("etna").subsystem(
            "replication").on_dispatch_failure(
                "oak", [fetch], attempts=3, causes=["dead"])
        assert not isinstance(reply, SubqueryFailure)
        assert reply is not None
        assert fetch.served_by["owner"] == "oak"


    def test_stale_first_peer_falls_through_to_a_fresh_one(self):
        """A peer that left an ask unanswered is passed over: shady
        missed the pushes of oak's last updates, top did not."""
        from repro.net.messages import UpdateMessage
        from repro.net.messages import ReplicateMessage

        clock = {"now": 0.0}
        network = LoopbackNetwork()
        cluster = replicated_cluster(k=2, network=network,
                                     clock=lambda: clock["now"])

        def drop_pushes_to_shady(src, dst, message):
            if isinstance(message, ReplicateMessage) and dst == "shady":
                raise OSError("push lost")

        network.interceptors.append(drop_pushes_to_shady)
        clock["now"] = 50.0
        block = OAKLAND + (("block", "1"),)
        for path in (block, block + (("parkingSpace", "1"),),
                     block + (("parkingSpace", "2"),)):
            cluster.agent("oak").handle_message(
                UpdateMessage(path, values={}, sender="sensor"))
        clock["now"] = 60.0
        cluster.kill_site("oak")
        results, _, outcome = cluster.query(FRESH_OAK_BLOCK, at_site="etna")
        assert outcome.complete
        assert answer_set(results) == answer_set(
            replicated_cluster(k=2).query(OAK_BLOCK, at_site="top")[0])
        report = outcome.completeness_report()
        [served] = report["served_by_replica"]
        assert (served["replica"], served["age"]) == ("top", 10.0)
        assert report["replica_too_stale"] == []

    def test_peer_without_a_copy_does_not_forward(self):
        """The failover ask is flagged ``no_forward``: a peer holding no
        copy answers what it has instead of asking on."""
        from repro.net.messages import ReplicateMessage

        network = LoopbackNetwork()
        network.interceptors.append(
            lambda src, dst, message: _raise_if(
                isinstance(message, ReplicateMessage) and src == "oak"))
        cluster = replicated_cluster(k=1, network=network)  # peer: shady
        cluster.kill_site("oak")
        messages = []
        network.interceptors.append(
            lambda src, dst, message: messages.append((src, dst)))
        _, _, outcome = cluster.query(OAK_BLOCK, at_site="etna")
        assert not outcome.complete
        assert set(messages) == {("etna", "oak"), ("etna", "shady")}
        assert messages.count(("etna", "shady")) == 1
        [miss] = outcome.completeness_report()["unreachable"]
        assert miss["causes"][-1] == \
            "no replica of site 'oak' holds the region"

    def test_several_asks_fail_over_in_one_batch(self):
        """Every subquery of a failed group goes to a peer in one
        flagged ``query`` of several items, and each is served on its
        own.  (A warm block 1 at etna splits the ask into one per
        block.)"""
        from repro.net.messages import QueryMessage

        baseline = answer_set(replicated_cluster(k=2).query(
            self.BOTH_BLOCKS, at_site="etna")[0])
        network = LoopbackNetwork()
        cluster = replicated_cluster(k=2, network=network)
        cluster.query(OAK_BLOCK + "/parkingSpace", at_site="etna")
        cluster.kill_site("oak")
        to_peers = []
        network.interceptors.append(
            lambda src, dst, message: dst != "oak" and to_peers.append(
                (dst, message)))
        results, _, outcome = cluster.query(self.BOTH_BLOCKS,
                                            at_site="etna")
        assert outcome.complete
        assert answer_set(results) == baseline != []
        [(peer, ask)] = to_peers
        assert peer == "shady"
        assert isinstance(ask, QueryMessage) and ask.no_forward
        assert len(ask.items) == 2
        served = outcome.completeness_report()["served_by_replica"]
        assert [entry["replica"] for entry in served] == ["shady", "shady"]

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
        results, _, outcome = cluster2.query(OAK_BLOCK, at_site="etna")
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


class TestRingPeerAnswersFromItsCopy:
    """A pushed copy is an ordinary cache entry: a ring peer answers its
    own users from it, within each query's freshness bound."""

    STALE_AFTER_30 = FIGURE2_QUERY + "[timestamp() > current-time() - 30]"

    def _answers(self, query, subsystems, now=0.0):
        clock = {"now": 0.0}
        cluster = Cluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
            oa_config=OAConfig(retry_policy=fast_retries()),
            clock=lambda: clock["now"], count_bytes=True,
            subsystems=subsystems)
        clock["now"] = now
        links = cluster.network.traffic.per_link
        before = {link: count for link, (count, _bytes) in links.items()}
        results, _, outcome = cluster.query(query, at_site="top")
        assert outcome.complete
        sent = {link for link, (count, _bytes) in links.items()
                if count != before.get(link)}
        return answer_set(results), sent

    def test_ring_peer_answers_figure2_with_no_messages(self):
        # top is one of oak's and shady's ring peers (k=2).
        answer, sent = self._answers(FIGURE2_QUERY, [ReplicationConfig(k=2)])
        assert sent == set()
        answer_off, sent_off = self._answers(FIGURE2_QUERY, [])
        assert answer == answer_off != []
        assert sent_off  # without the pushed copies top asks

    def test_bound_shorter_than_the_push_age_asks_the_owner(self):
        answer, sent = self._answers(self.STALE_AFTER_30,
                                     [ReplicationConfig(k=2)], now=100.0)
        assert ("top", "oak") in sent
        assert answer == self._answers(self.STALE_AFTER_30, [],
                                       now=100.0)[0] != []


class TestRestartedPeerKeepsItsCopies:
    def test_restarted_ring_peer_still_serves_failover(self):
        """Regression: a ring peer restarted without durability lost
        every copy it held, so a later failover to it found nothing.
        Every live owner whose ring includes it now pushes again."""
        baseline = answer_set(
            replicated_cluster(k=1).query(OAK_BLOCK, at_site="top")[0])
        cluster = replicated_cluster(k=1)  # oak's only peer is shady
        cluster.kill_site("shady")
        cluster.restart_site("shady")
        cluster.kill_site("oak")
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert outcome.complete
        assert answer_set(results) == baseline != []
        [served] = outcome.completeness_report()["served_by_replica"]
        assert (served["owner"], served["replica"]) == ("oak", "shady")


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


class TestPushes:
    def test_reordered_older_push_keeps_the_newer_copy(self):
        """The merge's newer-timestamp rule orders pushes: an older one
        arriving late leaves the newer copy in place."""
        from repro.core.answer import AnswerBuilder
        from repro.net.messages import UpdateMessage
        from repro.net.messages import ReplicateMessage

        clock = {"now": 0.0}
        cluster = replicated_cluster(k=2, clock=lambda: clock["now"])
        oak = cluster.agent("oak")
        space = OAKLAND + (("block", "1"), ("parkingSpace", "1"))
        builder = AnswerBuilder(oak.database)
        builder.include_local_information(oak.database.find(space))
        older = ReplicateMessage(builder.build().copy(), sender="oak")
        clock["now"] = 5.0
        oak.handle_message(UpdateMessage(
            space, values={"available": "maybe"}, sender="sensor"))
        shady = cluster.agent("shady")
        shady.handle_message(older)
        copy = shady.database.find(space)
        assert get_status(copy) is Status.COMPLETE
        assert copy.child("available").text == "maybe"

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
                                                        at_site="etna")
            assert failed_over.complete
            assert answer_set(results) == answer_set(baseline)
            [served] = \
                failed_over.completeness_report()["served_by_replica"]
            assert served["owner"] == "oak"

            tcp.restart_site("oak")
            assert tcp.cluster.stats["site_rehydrations"] == 1
            results, _, healed = tcp.cluster.query(FIGURE2_QUERY,
                                                   at_site="etna")
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
        report = cluster.agent("etna").explain(FIGURE2_QUERY)
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
