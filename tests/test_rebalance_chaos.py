"""Chaos during migration: every step fails, nothing is lost.

Deterministic :meth:`FaultyNetwork.add_trigger` faults aimed at each
step of the take-ownership hand-off prove the protocol is atomic
(complete or roll back, never half-owned), idempotent under duplicated
adopts, eventually consistent after a double message loss (the
DNS-authority reconcile pass), and that queries and updates in flight
during a migration are neither dropped nor answered incorrectly --
stale-DNS stragglers are served by the old owner's demoted copy, and
updates landing inside the hand-off window follow the data to the new
owner.
"""

import pytest

from repro.core import PartitionPlan
from repro.core.errors import CoreError
from repro.core.status import Status, get_status
from repro.net import Cluster, FaultyNetwork, LoopbackNetwork, OAConfig
from repro.net.messages import UpdateMessage
from repro.net.oa import MigrationError
from repro.rebalance import RebalanceConfig
from repro.xmlkit import parse_fragment

from tests.conftest import OAKLAND, PAPER_DOCUMENT
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    answer_set,
    fast_retries,
)
from tests.test_rebalance import OAK_BLOCK1_PATH, OAK_BLOCK2, skewed_load

SPACE1_PATH = OAK_BLOCK1_PATH + (("parkingSpace", "1"),)


def chaos_cluster():
    network = FaultyNetwork(LoopbackNetwork(), seed=0)
    cluster = Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=OAConfig(retry_policy=fast_retries()),
        network=network,
        subsystems=[RebalanceConfig(min_queries=4, overload_ratio=1.5,
                                    adopt_attempts=3)],
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


class TestAdoptRequestDropped:
    """Step 1 lost entirely: the migration rolls back."""

    def _failed_migration(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        network.add_trigger("adopt", action="drop", times=3)
        moves = cluster.subsystem("rebalance").tick()
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
        network.add_trigger("adopt", action="drop", times=3)
        with pytest.raises(MigrationError):
            cluster.delegate(OAK_BLOCK1_PATH, "etna")
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]


class TestAdoptReplyLost:
    """Step 1 done, ack lost: the retry re-adopts idempotently."""

    def test_reset_then_retry_completes_exactly_once(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        network.add_trigger("adopt", action="reset", times=1)
        [move] = cluster.subsystem("rebalance").tick()
        # The adopter saw the message twice, but ownership is single.
        assert owners_of(cluster, OAK_BLOCK1_PATH) == [move.target]
        assert cluster.owner_map[OAK_BLOCK1_PATH] == move.target
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == \
            move.target
        assert cluster.subsystem("rebalance").reconcile() == 0
        for site in cluster.agents:
            results, _, outcome = cluster.query(OAK_BLOCK, at_site=site)
            assert outcome.complete
            assert answer_set(results) == baseline


class TestAdopterKilled:
    """The adopter dies on arrival: rollback, queries survive."""

    def test_kill_on_adopt_rolls_back(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        network.add_trigger("adopt", action="kill", times=1)
        moves = cluster.subsystem("rebalance").tick()
        assert moves == []
        assert cluster.subsystem("rebalance").metrics()[
            "migrations_failed"] == 1
        assert cluster.owner_map[OAK_BLOCK1_PATH] == "oak"
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="oak")
        assert outcome.complete
        assert answer_set(results) == baseline


class TestDoubleLoss:
    """Every adopt ack AND the abort release lost: both sides claim
    the path until the DNS-authority reconcile demotes the adopter."""

    def test_reconcile_restores_single_ownership(self):
        cluster, network = chaos_cluster()
        skewed_load(cluster)
        network.add_trigger("adopt", action="reset", times=3)
        network.add_trigger("migrate-release", action="drop", times=1)
        moves = cluster.subsystem("rebalance").tick()
        assert moves == []
        # The tick force-reconciled after the failure: the adopter's
        # stray OWNED copy is demoted, DNS's owner keeps the path.
        assert cluster.subsystem("rebalance").metrics()[
            "reconciled_demotions"] >= 1
        assert owners_of(cluster, OAK_BLOCK1_PATH) == ["oak"]
        assert cluster.dns.authoritative_site(OAK_BLOCK1_PATH) == "oak"
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="top")
        assert outcome.complete


class TestUpdatesInFlight:
    """An update landing inside the hand-off window follows the data."""

    def test_mid_migration_update_reaches_new_owner(self):
        cluster = Cluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
            oa_config=OAConfig(retry_policy=fast_retries()),
            subsystems=[RebalanceConfig(min_queries=4, overload_ratio=1.5)],
        )
        skewed_load(cluster)
        network = cluster.network

        def inject_update(src, dst, message):
            # Fire one update at the old owner while the adopt request
            # is on the wire -- after the fragment was exported, before
            # the hand-off commits.
            if message.kind == "adopt" and not hasattr(inject_update,
                                                       "fired"):
                inject_update.fired = True
                network.request("sensor", "oak", UpdateMessage(
                    SPACE1_PATH, values={"price": "99"}))

        network.interceptors.append(inject_update)
        [move] = cluster.subsystem("rebalance").tick()
        oak = cluster.agents["oak"]
        assert oak.stats["held_updates_forwarded"] == 1
        assert oak.stats["held_updates_lost"] == 0
        # The new owner's fragment includes the in-window update even
        # though the exported fragment predates it.
        element = cluster.agents[move.target].database.find(SPACE1_PATH)
        assert element.child("price").text == "99"
        [result] = cluster.query(OAK_BLOCK, at_site="top")[0]
        assert result.child("parkingSpace").child("price").text == "99"

    def test_post_migration_straggler_update_forwarded(self):
        # An update addressed to the old owner AFTER the hand-off (a
        # stale sensor proxy) is forwarded to the new owner, not lost.
        cluster, network = chaos_cluster()
        skewed_load(cluster)
        [move] = cluster.subsystem("rebalance").tick()
        reply = network.request("sensor", "oak", UpdateMessage(
            SPACE1_PATH, values={"price": "77"}))
        assert reply.ok
        element = cluster.agents[move.target].database.find(SPACE1_PATH)
        assert element.child("price").text == "77"


class TestStaleDnsQueries:
    """Queries racing the DNS flip are answered, correctly."""

    def test_straggler_query_served_by_old_owner(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        cluster.subsystem("rebalance").tick()
        # A client holding the stale mapping still lands on oak; the
        # demoted copy answers it completely and correctly.
        results, _, outcome = cluster.query(OAK_BLOCK, at_site="oak")
        assert outcome.complete
        assert answer_set(results) == baseline

    def test_fresh_routing_after_old_owner_death(self):
        cluster, network = chaos_cluster()
        baseline = answer_set(cluster.query(OAK_BLOCK, at_site="top")[0])
        skewed_load(cluster)
        [move] = cluster.subsystem("rebalance").tick()
        cluster.kill_site("oak")
        # Default routing resolves the *new* DNS entry and asks the
        # adopter directly; the old owner's death is invisible.
        results, _, outcome = cluster.query(OAK_BLOCK)
        assert outcome.complete
        assert answer_set(results) == baseline
