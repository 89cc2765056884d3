"""Unit tests for partitioning and the invariant checkers."""

import pytest

from repro.core import (
    PartitionError,
    PartitionPlan,
    Status,
    dns_ownership_violations,
    get_status,
    ownership_violations,
    set_status,
    structural_violations,
    validate_deployment,
    violations_against_reference,
)
from repro.core.idable import iter_idable_with_paths
from repro.core.ownership import export_local_information
from repro.net import Cluster
from repro.xpath.analysis import dns_name_for_id_path

from tests.conftest import ETNA, OAKLAND, PITTSBURGH, SHADYSIDE, id_path


class TestPartitionPlan:
    def test_owner_map_nearest_ancestor(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        owners = plan.partition(paper_doc)[0]
        assert owners[OAKLAND] == "oak"
        assert owners[OAKLAND + (("block", "1"),)] == "oak"
        assert owners[SHADYSIDE] == "top"
        assert owners[id_path("usRegion=NE")] == "top"

    def test_deeper_assignment_wins(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
            "blk": [OAKLAND + (("block", "1"),)],
        })
        owners = plan.partition(paper_doc)[0]
        assert owners[OAKLAND + (("block", "1"),)] == "blk"
        assert owners[OAKLAND + (("block", "1"), ("parkingSpace", "1"))] == \
            "blk"
        assert owners[OAKLAND + (("block", "2"),)] == "oak"

    def test_root_must_be_assigned(self, paper_doc):
        plan = PartitionPlan({"oak": [OAKLAND]})
        with pytest.raises(PartitionError, match="root must be assigned"):
            plan.partition(paper_doc)

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(PartitionError):
            PartitionPlan({"a": [OAKLAND], "b": [OAKLAND]})

    def test_nonexistent_path_rejected(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "bad": [id_path("usRegion=NE/state=XX")],
        })
        with pytest.raises(PartitionError, match="does not exist"):
            plan.partition(paper_doc)

    def test_dns_records_cover_every_idable_node(self, paper_doc):
        cluster = Cluster(paper_doc, PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
            "blk": [OAKLAND + (("block", "2"),)],
        }))
        # One record per IDable node, under the name the one naming
        # rule gives its path, naming the node's owner.
        paths = [path for path, _ in iter_idable_with_paths(paper_doc)]
        assert len(cluster.dns) == len(paths)
        sites = [cluster.dns.lookup(dns_name_for_id_path(path)).site
                 for path in paths]
        assert sites == [cluster.owner_map[path] for path in paths]
        assert set(sites) == {"top", "oak", "blk"}


class TestBuiltDatabases:
    @pytest.fixture
    def deployment(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
            "shady": [SHADYSIDE],
            "etna": [ETNA],
        })
        return (plan, *plan.partition(paper_doc))

    def test_every_site_valid(self, deployment, paper_doc):
        _plan, owners, dbs = deployment
        assert validate_deployment(dbs, paper_doc, owners) == []

    def test_i1_each_owned_node_has_local_info(self, deployment):
        _plan, owners, dbs = deployment
        for path, site in owners.items():
            element = dbs[site].find(path)
            assert get_status(element) is Status.OWNED

    def test_i2_ancestor_chain_stored(self, deployment):
        _plan, _owners, dbs = deployment
        oak = dbs["oak"]
        for depth in range(1, len(OAKLAND)):
            ancestor = oak.find(OAKLAND[:depth])
            assert ancestor is not None
            assert get_status(ancestor).has_id_information

    def test_sibling_ids_present_at_ancestors(self, deployment):
        _plan, _owners, dbs = deployment
        # Shadyside's site knows Pittsburgh's other neighborhood IDs (I2).
        city = dbs["shady"].find(PITTSBURGH)
        ids = {c.id for c in city.element_children("neighborhood")}
        assert ids == {"Oakland", "Shadyside"}

    def test_non_owned_content_absent(self, deployment):
        _plan, _owners, dbs = deployment
        shady_at_oak = dbs["oak"].find(SHADYSIDE)
        assert get_status(shady_at_oak) is Status.INCOMPLETE
        assert shady_at_oak.children == []


class TestViolationDetection:
    @pytest.fixture
    def clean_db(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        return plan.partition(paper_doc)[1]["oak"]

    def test_detects_i2_break(self, clean_db):
        # Demote an ancestor below id-complete while keeping descendants.
        city = clean_db.find(PITTSBURGH)
        set_status(city, Status.INCOMPLETE)
        problems = structural_violations(clean_db)
        assert any("I2" in p for p in problems)

    def test_detects_fat_stub(self, clean_db):
        shady = clean_db.find(SHADYSIDE)
        shady.set("zipcode", "15232")  # an incomplete node with content
        problems = structural_violations(clean_db)
        assert any("bare stub" in p for p in problems)

    def test_detects_missing_timestamp(self, clean_db):
        clean_db.find(OAKLAND).delete_attribute("timestamp")
        problems = structural_violations(clean_db)
        assert any("timestamp" in p for p in problems)

    def test_detects_content_divergence(self, clean_db, paper_doc):
        clean_db.find(OAKLAND).set("zipcode", "00000")
        problems = violations_against_reference(clean_db, paper_doc)
        assert any("local information differs" in p for p in problems)

    def test_detects_wrong_child_ids(self, clean_db, paper_doc):
        city = clean_db.find(PITTSBURGH)
        city.remove(clean_db.find(SHADYSIDE))
        problems = violations_against_reference(clean_db, paper_doc)
        assert any("child IDs differ" in p for p in problems)

    def test_ownership_violations(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        owners, dbs = plan.partition(paper_doc)
        dbs["oak"].release_ownership(OAKLAND)
        problems = ownership_violations(dbs, owners)
        assert any("I1" in p for p in problems)

    def test_foreign_owned_detected(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        owners, dbs = plan.partition(paper_doc)
        # "oak" suddenly claims Shadyside (a bare stub) as owned.
        set_status(dbs["oak"].find(SHADYSIDE), Status.OWNED)
        problems = ownership_violations(dbs, owners)
        assert any("owner map says" in p for p in problems)


class TestDnsOwnershipDetection:
    """``dns_ownership_violations`` fires on each way ownership can
    leave DNS: a second owner, a named site without the data owned,
    and a path claimed while the site DNS names is down."""

    @pytest.fixture
    def deployment(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        owners, dbs = plan.partition(paper_doc)
        return dbs, owners

    def test_a_fresh_deployment_follows_dns(self, deployment):
        dbs, owners = deployment
        assert dns_ownership_violations(dbs, owners.get) == []

    def test_detects_an_owner_dns_does_not_name(self, deployment):
        # Two owners: "top" took Oakland's data and promoted it, but DNS
        # still names "oak".
        dbs, owners = deployment
        dbs["top"].store_fragment(
            export_local_information(dbs["oak"], [OAKLAND]))
        dbs["top"].mark_owned(OAKLAND)
        problems = dns_ownership_violations(dbs, owners.get)
        assert problems == [
            "usRegion=NE/state=PA/county=Allegheny/city=Pittsburgh/"
            "neighborhood=Oakland: owned at ['oak', 'top'] but DNS "
            "names 'oak'"]

    def test_detects_a_named_site_that_does_not_own(self, deployment):
        dbs, owners = deployment
        dbs["oak"].release_ownership(OAKLAND)
        problems = dns_ownership_violations(dbs, owners.get)
        assert len(problems) == 1
        assert "owned at [] but DNS names 'oak'" in problems[0]

    def test_a_path_named_for_a_dead_site_is_owned_nowhere(self, deployment):
        dbs, owners = deployment
        live = {site: db for site, db in dbs.items() if site != "oak"}
        assert dns_ownership_violations(live, owners.get) == []
        set_status(live["top"].find(OAKLAND), Status.OWNED)
        problems = dns_ownership_violations(live, owners.get)
        assert len(problems) == 1
        assert "owned at ['top'] but DNS names 'oak'" in problems[0]


class TestOneWalk:
    """``partition`` carves the document in one preorder walk: no node
    is traced back to the root or looked up by key, and what a site
    stores is its own, with no link back into the logical document."""

    @pytest.fixture
    def tiny(self):
        from repro.arch.architectures import hierarchical
        from repro.service.parking import (
            ParkingConfig,
            build_parking_document,
        )

        config = ParkingConfig.tiny()
        return build_parking_document(config), hierarchical(config).plan

    def test_partition_traces_no_node_to_the_root(self, tiny, monkeypatch):
        from repro.xmlkit.nodes import Element

        calls = []
        for name in ("path_from_root", "child"):
            original = getattr(Element, name)

            def counted(self, *args, _name=name, _original=original,
                        **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Element, name, counted)
        document, plan = tiny
        owners, databases = plan.partition(document)
        assert calls == []
        assert len(databases) == 9 and len(owners) > 9

    def test_no_stored_element_links_to_the_document(self, tiny):
        document, plan = tiny
        cluster = Cluster(document, plan)
        linked = [
            (site, element.tag)
            for site, agent in cluster.agents.items()
            for element in agent.database.root.iter()
            if element._ser_origin is not None
        ]
        assert linked == []
        assert cluster.validate(document) == []
