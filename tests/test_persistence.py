"""Tests for site-database persistence (save/restart an OA from disk)."""

from repro.core import PartitionPlan, SensorDatabase, Status, get_status
from repro.core.invariants import (
    structural_violations,
    violations_against_reference,
)
from repro.xmlkit import trees_equal

from tests.conftest import OAKLAND, id_path


def test_save_load_roundtrip(paper_doc, tmp_path):
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
    })
    original = plan.partition(paper_doc)[1]["oak"]
    path = tmp_path / "oak.xml"
    original.save(str(path))

    restored = SensorDatabase.load(str(path), site_id="oak")
    assert trees_equal(restored.root, original.root)
    assert get_status(restored.find(OAKLAND)) is Status.OWNED
    assert structural_violations(restored) == []
    assert violations_against_reference(restored, paper_doc) == []


def test_restarted_database_serves_queries(paper_doc, tmp_path):
    from repro.core import GatherDriver, HierarchySchema

    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
    })
    databases = plan.partition(paper_doc)[1]
    path = tmp_path / "oak.xml"
    databases["oak"].save(str(path))
    restored = SensorDatabase.load(str(path), site_id="oak")

    driver = GatherDriver(restored, send=lambda pending: [None] * len(pending),
                          schema=HierarchySchema.from_document(paper_doc))
    results, outcome = driver.answer_user_query(
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
        "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
        "/block[@id='1']/parkingSpace[available='yes']")
    assert [r.id for r in results] == ["1"]
    assert not outcome.used_remote_data


def test_cached_state_survives_restart(paper_doc, tmp_path):
    from repro.net import Cluster

    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
    })
    cluster = Cluster(paper_doc, plan)
    query = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
             "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
             "/block[@id='2']")
    cluster.query(query, at_site="top")  # caches block 2 at top

    path = tmp_path / "top.xml"
    cluster.database("top").save(str(path))
    restored = SensorDatabase.load(str(path), site_id="top")
    block = restored.find(OAKLAND + (("block", "2"),))
    assert get_status(block) is Status.COMPLETE
