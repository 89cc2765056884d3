"""Durability end-to-end: recovery, overload shedding, graceful drain.

The acceptance criterion of the durability subsystem is stated here:
a cluster site killed mid-workload and restarted from checkpoint +
WAL replay holds a byte-identical partition and answers the
post-recovery query suite byte-identically to a control cluster that
was never killed.
"""

import pytest

from repro.core import PartitionPlan
from repro.durability import (
    DurabilityConfig,
    DurabilityError,
    DurabilityManager,
    apply_record,
    partition_fingerprint,
)
from repro.net import Cluster, ErrorMessage, LoopbackNetwork, QueryMessage
from repro.net.tcpruntime import TcpCluster, TcpNetwork
from repro.xmlkit import parse_fragment, serialize

from tests.conftest import (
    ETNA,
    OAKLAND,
    PAPER_DOCUMENT,
    SHADYSIDE,
    id_path,
)

PLAN = {
    "top": [id_path("usRegion=NE")],
    "oak": [OAKLAND],
    "shady": [SHADYSIDE],
    "etna": [ETNA],
}

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")
OAK_SPACES = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
              "/parkingSpace[available='yes']")
QUERY_SUITE = [
    OAK_SPACES,
    PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
             "/parkingSpace[available='yes']",
    PREFIX + "/neighborhood[@id='Oakland']",
]

OAK_SPACE_1 = OAKLAND + (("block", "1"), ("parkingSpace", "1"))
OAK_SPACE_2 = OAKLAND + (("block", "1"), ("parkingSpace", "2"))


def canonical(element):
    return serialize(element, sort_attributes=True, use_cache=False)


def make_cluster(tmp_path, clock=None, network=None, **config_kwargs):
    config = DurabilityConfig(directory=str(tmp_path / "durability"),
                              **config_kwargs)
    return Cluster(parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
                   durability=config, clock=clock or (lambda: 1000.0),
                   network=network)


def fingerprints(cluster):
    return {site: partition_fingerprint(agent.database)
            for site, agent in cluster.agents.items()}


class TestManager:
    def _manager(self, tmp_path, **kwargs):
        kwargs.setdefault("sync_every", 0)
        config = DurabilityConfig(directory=str(tmp_path), **kwargs)
        return DurabilityManager(config, "oak", clock=lambda: 1000.0)

    def _database(self):
        from repro.core.database import SensorDatabase
        from repro.core.status import Status, set_status

        root = parse_fragment(
            "<usRegion id='NE'><state id='PA'>"
            "<population>12</population></state></usRegion>")
        for node in root.iter():
            if node.id is not None:
                set_status(node, Status.OWNED)
        return SensorDatabase(root, clock=lambda: 1000.0, site_id="oak")

    def test_attach_writes_initial_checkpoint(self, tmp_path):
        manager = self._manager(tmp_path)
        assert not manager.has_state()
        manager.attach(self._database())
        assert manager.has_state()
        assert manager.stats["checkpoints_written"] == 1
        manager.close()

    def test_mutations_journalled_and_recovered(self, tmp_path):
        manager = self._manager(tmp_path)
        database = self._database()
        manager.attach(database)
        database.apply_update((("usRegion", "NE"), ("state", "PA")),
                              values={"population": "13"})
        before = partition_fingerprint(database)
        manager.abort()  # crash

        reborn = self._manager(tmp_path)
        recovered = reborn.recover()
        assert partition_fingerprint(recovered) == before
        assert reborn.stats["last_recovery_replayed"] == 1
        reborn.close()

    def test_auto_checkpoint_rotates_log(self, tmp_path):
        manager = self._manager(tmp_path, checkpoint_interval=2)
        database = self._database()
        manager.attach(database)
        path = (("usRegion", "NE"), ("state", "PA"))
        for value in ("13", "14", "15"):
            database.apply_update(path, values={"population": value})
        # Two updates trigger a checkpoint; the third sits in the log.
        assert manager.stats["auto_checkpoints"] == 1
        assert len(manager._wal.recovered_records) == 0
        before = partition_fingerprint(database)
        manager.abort()

        reborn = self._manager(tmp_path, checkpoint_interval=2)
        assert partition_fingerprint(reborn.recover()) == before
        assert reborn.stats["last_recovery_replayed"] == 1  # just the third
        reborn.close()

    def test_recover_with_nothing_raises(self, tmp_path):
        manager = self._manager(tmp_path)
        with pytest.raises(DurabilityError):
            manager.recover()
        manager.close()

    def test_replay_is_idempotent(self, tmp_path):
        manager = self._manager(tmp_path)
        database = self._database()
        records = []
        database.journal = records.append
        database.apply_update((("usRegion", "NE"), ("state", "PA")),
                              values={"population": "99"},
                              attributes={"motto": "virtue"})
        database.journal = None
        once = partition_fingerprint(database)
        for record in records:  # second application: no-op
            apply_record(database, dict(record, lsn=0))
        assert partition_fingerprint(database) == once
        manager.close()

    def test_close_takes_final_checkpoint(self, tmp_path):
        manager = self._manager(tmp_path)
        database = self._database()
        manager.attach(database)
        database.apply_update((("usRegion", "NE"), ("state", "PA")),
                              values={"population": "42"})
        before = partition_fingerprint(database)
        manager.close(final_checkpoint=True)

        reborn = self._manager(tmp_path)
        recovered = reborn.recover()
        assert partition_fingerprint(recovered) == before
        # Everything came from the snapshot; the log was rotated empty.
        assert reborn.stats["last_recovery_replayed"] == 0
        reborn.close()

    def test_counters_snapshot(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.attach(self._database())
        counters = manager.metrics()
        assert counters["checkpoints_written"] == 1
        assert "wal_bytes" in counters and "wal_last_lsn" in counters
        manager.close()


class TestCacheRevalidation:
    def test_stale_cache_evicted_on_recovery(self, tmp_path):
        clock = _SettableClock(1000.0)
        cluster = make_cluster(tmp_path, clock=clock,
                               revalidate_max_age=60.0, sync_every=0)
        # Populate top's cache via a distributed query...
        cluster.query(OAK_SPACES, at_site="top")
        top = cluster.agents["top"].database
        assert top.find(OAK_SPACE_1) is not None

        # ...then die for an hour.
        cluster.kill_site("top")
        clock.now += 3600.0
        agent = cluster.restart_site("top")
        assert agent.subsystem("durability").stats["cache_entries_expired"] > 0
        # The stale cached subtree is gone; owned data survived.
        from repro.core.status import Status, get_status

        oakland = agent.database.find(OAKLAND)
        assert oakland is None or get_status(oakland) is not Status.COMPLETE
        region = agent.database.find((("usRegion", "NE"),))
        assert get_status(region) is Status.OWNED
        cluster.shutdown()

    def test_fresh_cache_survives_recovery(self, tmp_path):
        clock = _SettableClock(1000.0)
        cluster = make_cluster(tmp_path, clock=clock,
                               revalidate_max_age=3600.0, sync_every=0)
        cluster.query(OAK_SPACES, at_site="top")
        before = partition_fingerprint(cluster.agents["top"].database)
        cluster.kill_site("top")
        clock.now += 60.0  # well inside the bound
        agent = cluster.restart_site("top")
        assert partition_fingerprint(agent.database) == before
        assert agent.subsystem("durability").stats[
            "cache_entries_expired"] == 0
        cluster.shutdown()


class _SettableClock:
    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now


class TestClusterRecovery:
    def test_kill_restart_byte_identity(self, tmp_path):
        cluster = make_cluster(tmp_path, checkpoint_interval=3,
                               sync_every=0)
        cluster.agents["oak"].database.apply_update(
            OAK_SPACE_1, values={"available": "no"})
        cluster.query(OAK_SPACES, at_site="top")  # fill top's cache
        before = fingerprints(cluster)

        for site in list(cluster.agents):
            cluster.kill_site(site)
            cluster.restart_site(site)
        assert fingerprints(cluster) == before
        assert cluster.stats["site_kills"] == 4
        assert cluster.stats["site_restarts"] == 4
        cluster.shutdown()

    def test_restart_without_durability_refused(self, paper_doc,
                                                paper_plan):
        from repro.core.errors import QueryRoutingError

        cluster = Cluster(paper_doc, paper_plan)
        cluster.kill_site("oak")
        with pytest.raises(QueryRoutingError):
            cluster.restart_site("oak")

    def test_killed_site_stops_answering(self, tmp_path):
        cluster = make_cluster(tmp_path, sync_every=0)
        cluster.kill_site("oak")
        from repro.net.errors import UnknownSite

        message = QueryMessage(OAK_SPACES, user=True, sender="client")
        with pytest.raises(UnknownSite):
            cluster.network.request("client", "oak", message)
        cluster.restart_site("oak")
        reply = cluster.network.request("client", "oak", message)
        assert reply.kind == "answer"
        cluster.shutdown()

    def test_whole_cluster_restart_from_disk(self, tmp_path):
        clock = _SettableClock(1000.0)
        cluster = make_cluster(tmp_path, clock=clock, sync_every=0)
        cluster.agents["oak"].database.apply_update(
            OAK_SPACE_2, values={"price": "75"})
        before = fingerprints(cluster)
        answers = {q: [canonical(r) for r in cluster.query(q)[0]]
                   for q in QUERY_SUITE}
        cluster.shutdown()

        # A brand-new deployment over the same durability directory
        # recovers every site from disk instead of re-partitioning.
        reborn = make_cluster(tmp_path, clock=clock, sync_every=0)
        assert fingerprints(reborn) == before
        for query, expected in answers.items():
            results, _, _ = reborn.query(query)
            assert [canonical(r) for r in results] == expected
        reborn.shutdown()

    def test_durability_wire_parity(self, tmp_path, monkeypatch):
        """Journalling is strictly local: byte-identical traffic."""
        import itertools

        from repro.net import messages as messages_module

        def run(durability):
            # Pin the process-global message-id sequence so the two
            # runs frame identical ids (id width shows up in bytes).
            monkeypatch.setattr(messages_module, "_SEQUENCE",
                                itertools.count(1000))
            cluster = Cluster(
                parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
                durability=durability, clock=lambda: 1000.0,
                network=LoopbackNetwork(count_bytes=True))
            answers = {}
            for query in QUERY_SUITE:
                results, _, _ = cluster.query(query, at_site="top")
                answers[query] = [canonical(r) for r in results]
            return answers, cluster.network.traffic.summary()

        plain_answers, plain_traffic = run(None)
        durable_answers, durable_traffic = run(
            DurabilityConfig(directory=str(tmp_path), sync_every=0))
        assert durable_answers == plain_answers
        assert durable_traffic == plain_traffic

    def test_bind_lifecycle_kill_and_restart(self, tmp_path):
        from repro.net import FaultyNetwork

        network = FaultyNetwork(LoopbackNetwork())
        cluster = make_cluster(tmp_path, network=network, sync_every=0)
        cluster.bind_lifecycle(network)
        before = partition_fingerprint(cluster.agents["oak"].database)

        network.kill_agent("oak")
        assert "oak" not in cluster.agents
        assert network.is_down("oak")
        network.restart_agent("oak")
        assert not network.is_down("oak")
        assert partition_fingerprint(
            cluster.agents["oak"].database) == before
        assert network.fault_stats["agent_kills"] == 1
        assert network.fault_stats["agent_restarts"] == 1
        cluster.shutdown()


class TestTcpAcceptance:
    """The PR's acceptance criterion, over real sockets."""

    def _run(self, tmp_path, tag, kill_mid_workload):
        config = DurabilityConfig(directory=str(tmp_path / tag),
                                  checkpoint_interval=4, sync_every=0)
        cluster = TcpCluster(parse_fragment(PAPER_DOCUMENT),
                             PartitionPlan(PLAN), durability=config,
                             clock=lambda: 1000.0)
        try:
            # Phase 1 of the workload: updates land on oak, queries
            # spread cached copies around.
            cluster.cluster.agents["oak"].database.apply_update(
                OAK_SPACE_1, values={"available": "no", "price": "30"})
            cluster.cluster.query(QUERY_SUITE[0])

            if kill_mid_workload:
                cluster.kill_site("oak")
                cluster.restart_site("oak")

            # Phase 2: more mutations and the full post-recovery suite.
            cluster.cluster.agents["oak"].database.apply_update(
                OAK_SPACE_2, values={"price": "45"})
            answers = {}
            for query in QUERY_SUITE:
                results, _, _ = cluster.cluster.query(query)
                answers[query] = [canonical(r) for r in results]
            return answers, fingerprints(cluster.cluster)
        finally:
            cluster.close()

    def test_killed_site_matches_control(self, tmp_path):
        victim_answers, victim_fps = self._run(tmp_path, "victim",
                                               kill_mid_workload=True)
        control_answers, control_fps = self._run(tmp_path, "control",
                                                 kill_mid_workload=False)
        assert victim_answers == control_answers
        assert victim_fps == control_fps

    def test_kill_severs_pooled_connections(self, tmp_path):
        """A kill must sever *established* connections, not just the
        listener: a surviving handler thread on a pooled socket would
        otherwise keep answering from the dead agent's state (a
        zombie site that masks the outage -- and, after restart,
        bypasses the recovered agent entirely)."""
        from repro.net import OAConfig, RetryPolicy

        config = DurabilityConfig(directory=str(tmp_path / "d"),
                                  sync_every=0)
        cluster = TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
            durability=config, clock=lambda: 1000.0,
            oa_config=OAConfig(
                cache_results=False,
                retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0,
                                         max_delay=0.0, jitter=0.0,
                                         sleep=lambda _s: None)))
        try:
            top = cluster.cluster.agents["top"]
            # Warm a pooled connection into oak's handler thread.
            results, outcome = top.answer_user_query(QUERY_SUITE[0])
            assert outcome.complete and results

            cluster.kill_site("oak")
            results, outcome = top.answer_user_query(QUERY_SUITE[0])
            assert not outcome.complete  # dead means dead

            restarted = cluster.restart_site("oak")
            results, outcome = top.answer_user_query(QUERY_SUITE[0])
            assert outcome.complete and results
            # The answer came from the recovered agent, over the wire.
            assert restarted.stats["subqueries_served"] > 0
        finally:
            cluster.close(drain=False)


class TestOverloadProtection:
    def _start_server(self, paper_doc, paper_plan, max_pending):
        from repro.net.dns import DnsResolver, DnsServer
        from repro.net.oa import OrganizingAgent
        from repro.net.tcpruntime import TcpSiteServer

        plan = PartitionPlan(PLAN)
        databases = plan.build_databases(
            parse_fragment(PAPER_DOCUMENT), default_clock=lambda: 0.0)
        dns = DnsServer()
        for path, site in plan.owner_map(
                parse_fragment(PAPER_DOCUMENT)).items():
            dns.register_id_path(path, site)
        network = TcpNetwork()
        agent = OrganizingAgent("top", databases["top"], network,
                                DnsResolver(dns), clock=lambda: 0.0)
        server = TcpSiteServer(agent, max_pending=max_pending).start()
        network.register_address("top", server.address)
        return server, network

    def test_admission_accounting(self, paper_doc, paper_plan):
        server, network = self._start_server(paper_doc, paper_plan,
                                             max_pending=2)
        try:
            assert server.admit() and server.admit()
            assert not server.admit()  # queue full
            stats = server.server_stats()
            assert stats["overload_rejections"] == 1
            assert stats["queue_depth"] == 2
            assert stats["max_queue_depth"] == 2
            server.release()
            assert server.admit()  # a slot freed up
            server.release()
            server.release()
        finally:
            server.stop(drain=False)
            network.close()

    def test_overloaded_server_sheds_with_retryable_error(
            self, paper_doc, paper_plan):
        server, network = self._start_server(paper_doc, paper_plan,
                                             max_pending=1)
        try:
            # Wedge the agent lock so one admitted request occupies the
            # whole queue, then talk to the server directly.
            with server.agent_lock:
                assert server.admit()  # the wedged in-flight request
                reply = network.request(
                    "client", "top",
                    QueryMessage(PREFIX, sender="client"))
                server.release()
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "server-overloaded"
            assert reply.retryable
            assert server.server_stats()["overload_rejections"] >= 1
        finally:
            server.stop(drain=False)
            network.close()

    def test_retry_layer_heals_transient_overload(self, tmp_path):
        """The retryable rejection composes with client backoff."""
        from repro.net import OAConfig, RetryPolicy

        config = DurabilityConfig(directory=str(tmp_path / "d"),
                                  sync_every=0)
        released = []

        def sleep_and_unwedge(_seconds):
            # The first backoff sleep frees oak's wedged queue slot --
            # a deterministic "transient" overload.
            if not released:
                released.append(True)
                cluster.servers["oak"].release()

        cluster = TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
            durability=config, max_pending=1, clock=lambda: 1000.0,
            oa_config=OAConfig(retry_policy=RetryPolicy(
                max_attempts=4, base_delay=0.01, max_delay=0.05,
                sleep=sleep_and_unwedge)))
        try:
            server = cluster.servers["oak"]
            assert server.admit()  # wedge oak's queue full
            # Route through top so the oak subquery crosses the wire
            # and hits oak's (full) admission queue.
            results, outcome = cluster.cluster.agents[
                "top"].answer_user_query(QUERY_SUITE[0])
            assert released  # the rejection triggered a retry
            assert results and outcome.complete  # healed, not degraded
            assert server.stats["overload_rejections"] >= 1
        finally:
            cluster.close(drain=False)


class TestGracefulDrain:
    def test_draining_server_rejects_and_closes(self, tmp_path):
        config = DurabilityConfig(directory=str(tmp_path / "d"),
                                  sync_every=0)
        cluster = TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
            durability=config, clock=lambda: 1000.0)
        try:
            server = cluster.servers["oak"]
            # Establish a pooled connection first: after begin_drain
            # the accept loop is stopped, but live connections are
            # still answered (with rejections) until they close.
            warm = cluster.network.request(
                "client", "oak",
                QueryMessage(QUERY_SUITE[0], user=True, sender="client"))
            assert warm.kind == "answer"
            server.begin_drain()
            assert server.wait_drained(timeout=5.0)
            reply = cluster.network.request(
                "client", "oak",
                QueryMessage(QUERY_SUITE[0], user=True, sender="client"))
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "server-overloaded"
            assert reply.retryable
            assert server.server_stats()["drain_rejections"] >= 1
        finally:
            cluster.close(drain=False)

    def test_close_drains_wal_and_checkpoints(self, tmp_path):
        config = DurabilityConfig(directory=str(tmp_path / "d"),
                                  sync_every=0)
        cluster = TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
            durability=config, clock=lambda: 1000.0)
        cluster.cluster.agents["oak"].database.apply_update(
            OAK_SPACE_1, values={"price": "60"})
        before = fingerprints(cluster.cluster)
        cluster.close()  # graceful: drain + final checkpoints

        reborn = TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
            durability=config, clock=lambda: 1000.0)
        try:
            assert fingerprints(reborn.cluster) == before
        finally:
            reborn.close()

    def test_metrics_include_server_and_durability(self, tmp_path):
        config = DurabilityConfig(directory=str(tmp_path / "d"),
                                  sync_every=0)
        cluster = TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PLAN),
            durability=config, clock=lambda: 1000.0)
        try:
            cluster.cluster.query(QUERY_SUITE[0])
            snapshot = cluster.metrics()
            assert set(snapshot["servers"]) == set(PLAN)
            assert "queue_depth" in snapshot["servers"]["oak"]
            assert snapshot["durability"]["checkpoints_written"] >= 4
            assert "oak" in snapshot["durability"]["sites"]
        finally:
            cluster.close()
