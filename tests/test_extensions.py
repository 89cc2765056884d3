"""Tests for the Section 4/7 extensions: schema evolution and
continuous queries."""

import pytest

from repro.core import (
    CoreError,
    Status,
    add_idable_child,
    get_status,
    remove_idable_child,
    rename_field,
    structural_violations,
)
from repro.core.database import SensorDatabase
from repro.core.status import set_status
from repro.durability import (
    DurabilityConfig,
    DurabilityManager,
    partition_fingerprint,
)
from repro.net import NameNotFound
from repro.xmlkit import parse_fragment, serialize

from tests.conftest import OAKLAND, PITTSBURGH, SHADYSIDE, id_path

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


class TestAddIdableNode:
    def test_add_block_via_cluster(self, paper_cluster):
        element = paper_cluster.add_node(OAKLAND, "block", "99",
                                         values={"note": "new"})
        assert get_status(element) is Status.OWNED
        # DNS entry registered; queries find the new node immediately.
        record = paper_cluster.dns.lookup(
            paper_cluster.dns.name_for(OAKLAND + (("block", "99"),)))
        assert record.site == "oak"
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='99']")
        assert len(results) == 1
        assert results[0].child("note").text == "new"

    def test_add_requires_parent_ownership(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            add_idable_child(dbs["top"], OAKLAND, "block", "99")

    def test_duplicate_rejected(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            add_idable_child(dbs["oak"], OAKLAND, "block", "1")

    def test_reserved_attributes_rejected(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            add_idable_child(dbs["oak"], OAKLAND, "block", "77",
                             attributes={"status": "owned"})

    def test_invariants_hold_after_add(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        add_idable_child(dbs["oak"], OAKLAND, "block", "42")
        assert structural_violations(dbs["oak"]) == []

    def test_add_updates_schema(self, paper_cluster):
        paper_cluster.add_node(OAKLAND + (("block", "1"),), "sensor", "s1")
        assert paper_cluster.schema.is_idable_tag("sensor")


class TestRemoveIdableNode:
    def test_remove_via_cluster(self, paper_cluster):
        block = OAKLAND + (("block", "2"),)
        name = paper_cluster.dns.name_for(block)
        removed = paper_cluster.remove_node(block)
        assert tuple(block) in {tuple(tuple(e) for e in p) for p in removed}
        with pytest.raises(NameNotFound):
            paper_cluster.dns.lookup(name)
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='2']")
        assert results == []

    def test_remove_reports_descendants(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        removed = remove_idable_child(dbs["oak"], OAKLAND + (("block", "1"),))
        tags = {p[-1][0] for p in removed}
        assert tags == {"block", "parkingSpace"}
        assert len(removed) == 3  # the block + its two spaces

    def test_remove_requires_parent_ownership(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            remove_idable_child(dbs["top"],
                                OAKLAND + (("block", "1"),))

    def test_cannot_remove_root(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            remove_idable_child(dbs["top"], id_path("usRegion=NE"))


class TestRenameField:
    def test_rename_locally(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        space = OAKLAND + (("block", "1"), ("parkingSpace", "1"))
        rename_field(dbs["oak"], space, "available", "is-free")
        element = dbs["oak"].find(space)
        assert element.child("is-free").text == "yes"
        assert element.child("available") is None

    def test_rename_moves_the_whole_field(self, tmp_path):
        """Nested elements, text and attributes all move under the new
        tag, and replaying the WAL rebuilds the same bytes."""
        config = DurabilityConfig(directory=str(tmp_path), sync_every=0,
                                  checkpoint_interval=0)
        manager = DurabilityManager(config, "s0", clock=lambda: 1000.0)
        root = parse_fragment(
            "<s id='1'><note kind='k'><deep>7</deep><empty/>loose</note>"
            "<v>1</v></s>")
        set_status(root, Status.OWNED)
        database = SensorDatabase(root, clock=lambda: 1000.0, site_id="s0")
        manager.attach(database)
        rename_field(database, (("s", "1"),), "note", "memo")
        memo = database.root.child("memo")
        assert database.root.child("note") is None
        assert serialize(memo) == \
            '<memo kind="k"><deep>7</deep><empty/>loose</memo>'
        live = partition_fingerprint(database)
        manager.abort()

        reborn = DurabilityManager(config, "s0", clock=lambda: 1000.0)
        recovered = reborn.recover()
        assert serialize(recovered.root.child("memo")) == serialize(memo)
        assert partition_fingerprint(recovered) == live
        reborn.close()

    def test_rename_requires_ownership(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            rename_field(dbs["top"],
                         OAKLAND + (("block", "1"), ("parkingSpace", "1")),
                         "available", "is-free")

    def test_rename_rejects_idable_child(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            rename_field(dbs["oak"], OAKLAND, "block", "zone")


class TestContinuousQueries:
    QUERY = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
             "/parkingSpace[available='yes']")

    def test_initial_fire(self, paper_cluster):
        seen = []
        site, _sid = paper_cluster.subscribe(self.QUERY, seen.append)
        assert site == "oak"
        assert len(seen) == 1
        assert {r.id for r in seen[0]} == {"1"}

    def test_update_triggers_notification(self, paper_cluster):
        seen = []
        paper_cluster.subscribe(self.QUERY, seen.append)
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = paper_cluster.add_sensing_agent("sa-cq", [space])
        sa.send_update(space, values={"available": "yes"})
        assert len(seen) == 2
        assert {r.id for r in seen[-1]} == {"1", "2"}

    def test_no_notification_when_answer_unchanged(self, paper_cluster):
        seen = []
        paper_cluster.subscribe(self.QUERY, seen.append)
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = paper_cluster.add_sensing_agent("sa-cq", [space])
        sa.send_update(space, values={"available": "no"})  # still no
        assert len(seen) == 1

    def test_irrelevant_update_not_evaluated(self, paper_cluster):
        seen = []
        site, _sid = paper_cluster.subscribe(self.QUERY, seen.append)
        manager = paper_cluster.agent(site).continuous
        evaluations = manager.stats["evaluations"]
        other = SHADYSIDE + (("block", "1"), ("parkingSpace", "1"))
        sa = paper_cluster.add_sensing_agent("sa-cq", [other])
        sa.send_update(other, values={"available": "no"})
        assert manager.stats["evaluations"] == evaluations

    def test_unsubscribe_stops_notifications(self, paper_cluster):
        seen = []
        site, sid = paper_cluster.subscribe(self.QUERY, seen.append)
        paper_cluster.unsubscribe(site, sid)
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = paper_cluster.add_sensing_agent("sa-cq", [space])
        sa.send_update(space, values={"available": "yes"})
        assert len(seen) == 1  # only the initial fire

    def test_subscription_covers_region(self):
        from repro.net.continuous import Subscription

        subscription = Subscription("/q", PITTSBURGH, lambda r: None)
        assert subscription.covers(OAKLAND)  # inside the region
        assert subscription.covers(PITTSBURGH[:2])  # ancestor info
        other_city = PITTSBURGH[:-1] + (("city", "Etna"),)
        assert not subscription.covers(other_city + (("neighborhood", "R"),))


class TestRemovalTransients:
    def test_stale_stub_elsewhere_reads_as_absent(self, paper_cluster):
        """After a node is deleted, another site's leftover ID stub must
        make queries return empty -- not crash on the missing DNS entry
        (Section 4's transient-inconsistency stance)."""
        block = OAKLAND + (("block", "2"),)
        # Warm "top" with block 1 only: block 2 stays an ID stub there.
        paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']",
            at_site="top")
        paper_cluster.remove_node(block)
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='2']",
            at_site="top")
        assert results == []

    def test_stale_full_cache_is_a_transient_inconsistency(
            self, paper_cluster):
        """A site holding a *complete* cached copy of a deleted node
        keeps serving it until refreshed -- the transient inconsistency
        Section 4 explicitly accepts for these applications."""
        block = OAKLAND + (("block", "2"),)
        paper_cluster.query(PREFIX + "/neighborhood[@id='Oakland']",
                            at_site="top")  # caches block 2 fully
        paper_cluster.remove_node(block)
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='2']",
            at_site="top")
        assert len(results) == 1  # stale but served, by design
        # The owner itself is consistent immediately.
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='2']",
            at_site="oak")
        assert results == []

    def test_owner_reflects_removal_immediately(self, paper_cluster):
        block = OAKLAND + (("block", "2"),)
        paper_cluster.remove_node(block)
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='2']",
            at_site="oak")
        assert results == []
