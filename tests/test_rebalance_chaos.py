"""Chaos during migration: every step fails, nothing is lost.

A migration is a push and the flip.  Deterministic
:meth:`FaultyNetwork.add_trigger` faults aimed at the push prove that
ownership follows DNS: a push that never lands, or whose ack is lost
every time, or whose target dies on arrival ends in
:class:`MigrationError` with the old owner still owning and DNS
unchanged -- the target holds at most a cached copy -- and a lost ack
the retry heals flips exactly once.  Queries and updates in flight
during a migration are neither dropped nor answered incorrectly:
stale-DNS stragglers are served by the old owner's demoted copy, and
updates landing while a push is on the wire ride the next push.
"""

import pytest

from repro.core import PartitionPlan
from repro.core.status import Status, get_status
from repro.net import Cluster, FaultyNetwork, LoopbackNetwork, OAConfig
from repro.net.messages import UpdateMessage
from repro.net.oa import MigrationError
from repro.rebalance import RebalanceConfig
from repro.xmlkit import parse_fragment

from tests.conftest import PAPER_DOCUMENT, owners_follow_dns
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    answer_set,
    fast_retries,
)
from tests.test_rebalance import OAK_BLOCK1_PATH, skewed_load, tick

SPACE1_PATH = OAK_BLOCK1_PATH + (("parkingSpace", "1"),)


def chaos_cluster():
    network = FaultyNetwork(LoopbackNetwork(), seed=0)
    cluster = Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=OAConfig(retry_policy=fast_retries()),
        network=network,
        subsystems=[RebalanceConfig(min_queries=4, overload_ratio=1.5)],
    )
    cluster.bind_lifecycle(network)
    return cluster, network


def owners_of(cluster, id_path):
    """Every site whose database holds *id_path* with OWNED status."""
    owners = []
    for site, agent in cluster.agents.items():
        element = agent.database.find(id_path)
        if element is not None and get_status(element) is Status.OWNED:
            owners.append(site)
    return sorted(owners)


class TestPushDropped:
    """Every push lost entirely: the migration never flips."""

    def _failed_migration(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        network.add_trigger("replicate", action="drop", times=3)
        moves = tick(cluster)
        return cluster, network, baseline, moves

    def test_rollback_keeps_old_owner(self):
        cluster, network, _, moves = self._failed_migration()
        assert moves == []
        assert cluster.subsystem("rebalance").metrics()[
            "migrations_failed"] == 1
        assert cluster.owner_map[OAK_BLOCK1_PATH] == "oak"
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == "oak"
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        assert cluster.agents["oak"].stats["migrations_aborted"] == 1

    def test_queries_still_answered(self):
        cluster, _, baseline, _ = self._failed_migration()
        for site in cluster.agents:
            results, _, outcome = cluster.query(OAK_BLOCK, at_site=site)
            assert outcome.complete
            assert answer_set(results) == baseline

    def test_direct_delegate_raises(self):
        cluster, network = chaos_cluster()
        network.add_trigger("replicate", action="drop", times=3)
        with pytest.raises(MigrationError):
            cluster.delegate(OAK_BLOCK1_PATH, "etna")
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        assert owners_follow_dns(cluster) == []


class TestPushAckLost:
    """The push landed but its ack did not."""

    def test_reset_then_retry_completes_exactly_once(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        network.add_trigger("replicate", action="reset", times=1)
        [move] = tick(cluster)
        # The target merged the push twice, but ownership is single.
        assert owners_of(cluster, OAK_BLOCK1_PATH) == [move.target]
        assert cluster.owner_map[OAK_BLOCK1_PATH] == move.target
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == \
            move.target
        assert owners_follow_dns(cluster) == []
        for site in cluster.agents:
            results, _, outcome = cluster.query(OAK_BLOCK, at_site=site)
            assert outcome.complete
            assert answer_set(results) == baseline

    def test_every_ack_lost_leaves_the_target_a_cached_copy(self):
        # Each push reached etna and each ack was lost: the old owner
        # cannot tell, so it never flips.  etna merged the data as a
        # cache; nothing claims ownership DNS did not grant.
        cluster, network = chaos_cluster()
        network.add_trigger("replicate", action="reset", times=3)
        with pytest.raises(MigrationError):
            cluster.delegate(OAK_BLOCK1_PATH, "etna")
        assert owners_follow_dns(cluster) == []
        copy = cluster.agents["etna"].database.find(OAK_BLOCK1_PATH)
        assert get_status(copy) is Status.COMPLETE
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == "oak"
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        assert cluster.agents["oak"].stats["migrations_aborted"] == 1
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert outcome.complete


    def test_an_acked_push_the_target_does_not_hold_is_never_promoted(
            self, monkeypatch):
        # A target that acks a push but no longer holds the copy at the
        # flip (a restart in between) is not made an owner of nothing.
        cluster, _network = chaos_cluster()
        etna = cluster.agents["etna"]
        monkeypatch.setattr(etna.database, "store_fragment",
                            lambda fragment: [])
        with pytest.raises(MigrationError, match="lost the pushed copy"):
            cluster.delegate(OAK_BLOCK1_PATH, "etna")
        assert owners_follow_dns(cluster) == []
        assert etna.database.find(OAK_BLOCK1_PATH) is None
        assert etna.stats["migrations_in"] == 0


class TestPushOvertaken:
    """An update lands under every push: the region never holds still."""

    def test_max_attempts_overtaken_pushes_abort_without_a_flip(self):
        cluster, network = chaos_cluster()
        pushes = []

        def overtake(src, dst, message):
            if message.kind == "replicate" and src == "oak":
                pushes.append(dst)
                network.request("sensor", "oak", UpdateMessage(
                    SPACE1_PATH, values={"price": str(len(pushes))}))

        network.interceptors.append(overtake)
        with pytest.raises(MigrationError, match="update landed"):
            cluster.delegate(OAK_BLOCK1_PATH, "etna")
        attempts = cluster.agents["oak"].retry_policy.max_attempts
        assert pushes == ["etna"] * attempts
        assert owners_follow_dns(cluster) == []
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == "oak"
        assert cluster.agents["oak"].stats["migrations_aborted"] == 1
        # The newest reading stays at the owner; the target holds only
        # the cached copy of the last push, one reading behind.
        assert price_at(cluster, "oak") == str(attempts)
        copy = cluster.agents["etna"].database.find(OAK_BLOCK1_PATH)
        assert get_status(copy) is Status.COMPLETE
        assert price_at(cluster, "etna") == str(attempts - 1)


class TestTargetKilled:
    """The target dies on arrival of the push: no flip, queries survive."""

    def test_kill_on_push_rolls_back(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        network.add_trigger("replicate", action="kill", times=1)
        moves = tick(cluster)
        assert moves == []
        assert cluster.subsystem("rebalance").metrics()[
            "migrations_failed"] == 1
        assert cluster.owner_map[OAK_BLOCK1_PATH] == "oak"
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="oak")
        assert outcome.complete
        assert answer_set(results) == baseline


def plain_cluster():
    return Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=OAConfig(retry_policy=fast_retries()),
        subsystems=[RebalanceConfig(min_queries=4, overload_ratio=1.5)],
    )


def price_at(cluster, site):
    element = cluster.agents[site].database.find(SPACE1_PATH)
    return element.child("price").text


class TestUpdatesInFlight:
    """An update landing while a push is on the wire rides the next push."""

    def test_mid_migration_update_reaches_new_owner(self):
        cluster = plain_cluster()
        skewed_load(cluster)
        network = cluster.network
        pushes = []

        def inject_update(src, dst, message):
            # Fire one update at the old owner while the first push is
            # on the wire -- after the fragment was exported, before
            # the flip.
            if message.kind == "replicate":
                pushes.append(dst)
                if len(pushes) == 1:
                    network.request("sensor", "oak", UpdateMessage(
                        SPACE1_PATH, values={"price": "99"}))

        network.interceptors.append(inject_update)
        [move] = tick(cluster)
        # The update moved the region under the first push: it was
        # pushed again, once.
        assert pushes == [move.target, move.target]
        # The new owner's fragment includes the in-window update even
        # though the first exported fragment predates it.
        assert price_at(cluster, move.target) == "99"
        [result] = cluster.query(OAK_BLOCK, at_site="top")[0]
        assert result.child("parkingSpace").child("price").text == "99"

    def test_a_reading_sent_during_the_second_message_is_kept(self):
        """Regression: readings 99 and then 88 reach the old owner while
        its first and second messages to the target are on the wire.
        The newest, 88, must win at the new owner; keyed on message
        order, not kind (when held updates were replayed after the
        flip, the second message was the replay of 99, the straggler
        88 was forwarded straight to the new owner, and 99 then
        overwrote it)."""
        cluster = plain_cluster()
        skewed_load(cluster)
        network = cluster.network
        readings = ["99", "88"]
        targets = []

        def inject(src, dst, message):
            if src != "oak" or (targets and dst != targets[0]):
                return
            targets.append(dst)
            if len(targets) <= len(readings):
                network.request("sensor", "oak", UpdateMessage(
                    SPACE1_PATH,
                    values={"price": readings[len(targets) - 1]}))

        network.interceptors.append(inject)
        [move] = tick(cluster)
        assert targets[0] == move.target
        assert price_at(cluster, move.target) == "88"
        [result] = cluster.query(OAK_BLOCK, at_site="top")[0]
        assert result.child("parkingSpace").child("price").text == "88"

    def test_an_update_at_the_new_owner_during_the_flip_is_applied(self):
        # DNS never names a live site that does not own the region: an
        # update sent to the new owner the moment DNS re-maps a path is
        # applied there, not refused as "DNS says I own it".
        cluster, network = chaos_cluster()
        skewed_load(cluster)
        replies = []

        def at_the_flip(name, site):
            replies.append(network.request("sensor", site, UpdateMessage(
                SPACE1_PATH, values={"price": "55"})))

        cluster.dns.subscribe(at_the_flip)
        [move] = tick(cluster)
        assert replies and all(reply.ok for reply in replies)
        assert price_at(cluster, move.target) == "55"
        assert cluster.agents[move.target].stats["updates_applied"] == \
            len(replies)

    def test_post_migration_straggler_update_forwarded(self):
        # An update addressed to the old owner AFTER the hand-off (a
        # stale sensor proxy) is forwarded to the new owner, not lost.
        cluster, network = chaos_cluster()
        skewed_load(cluster)
        [move] = tick(cluster)
        reply = network.request("sensor", "oak", UpdateMessage(
            SPACE1_PATH, values={"price": "77"}))
        assert reply.ok
        assert price_at(cluster, move.target) == "77"


class TestStaleDnsQueries:
    """Queries racing the DNS flip are answered, correctly."""

    def test_straggler_query_served_by_old_owner(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        tick(cluster)
        # A client holding the stale mapping still lands on oak; the
        # demoted copy answers it completely and correctly.
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="oak")
        assert outcome.complete
        assert answer_set(results) == baseline

    def test_fresh_routing_after_old_owner_death(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        [move] = tick(cluster)
        cluster.kill_site("oak")
        # Default routing resolves the *new* DNS entry and asks the
        # new owner directly; the old owner's death is invisible.
        results, _, outcome = cluster.query(OAK_BLOCK)
        assert outcome.complete
        assert answer_set(results) == baseline
