"""Unit tests for the gather driver over hand-wired multi-site setups."""

import pytest

from repro.core import (
    CoreError,
    GatherDriver,
    HierarchySchema,
    PartitionPlan,
    Status,
    get_status,
)
from repro.core.gather import hand_over
from repro.xmlkit import serialize

from tests.conftest import (
    FIGURE2_QUERY,
    OAKLAND,
    SHADYSIDE,
    id_path,
)

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


def build_mesh(paper_doc, cache_results=True):
    """Drivers for a 3-site deployment with direct owner routing.  A
    reply goes to its receiver as :class:`~repro.net.LoopbackNetwork`
    hands it over: the stored subtrees it lends are copied."""
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
    })
    owners, dbs = plan.partition(paper_doc)
    schema = HierarchySchema.from_document(paper_doc)
    drivers = {}
    sent_log = []

    def owner_site_of(path):
        path = tuple(tuple(e) for e in path)
        while path and path not in owners:
            path = path[:-1]
        return owners.get(path)

    def make_send(site):
        def send_one(subquery):
            target = owner_site_of(subquery.anchor_path)
            sent_log.append((site, target, subquery.query))
            return hand_over(drivers[target].answer_any(subquery.query))
        return lambda pending: [send_one(subquery) for subquery in pending]

    for site, db in dbs.items():
        drivers[site] = GatherDriver(db, make_send(site), schema=schema,
                                     cache_results=cache_results)
    return drivers, dbs, sent_log


class TestAnswering:
    def test_figure2_query_distributed(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        results, outcome = drivers["top"].answer_user_query(FIGURE2_QUERY)
        answers = sorted(
            (r.parent is None, r.id, r.child("price").text) for r in results
        )
        assert [(a[1], a[2]) for a in answers] == \
            [("1", "25"), ("1", "50"), ("2", "25")]
        assert outcome.used_remote_data

    def test_results_are_clean_copies(self, paper_doc):
        drivers, dbs, _log = build_mesh(paper_doc)
        results, _ = drivers["top"].answer_user_query(FIGURE2_QUERY)
        for result in results:
            assert result.get("status") is None
            assert result.parent is None

    def test_second_query_serves_from_cache(self, paper_doc):
        drivers, _dbs, log = build_mesh(paper_doc)
        query = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
        drivers["top"].answer_user_query(query)
        first_count = len(log)
        results, outcome = drivers["top"].answer_user_query(query)
        assert len(log) == first_count  # no new traffic
        assert not outcome.used_remote_data
        assert len(results) == 1

    def test_caching_disabled_requeries(self, paper_doc):
        drivers, dbs, log = build_mesh(paper_doc, cache_results=False)
        query = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
        drivers["top"].answer_user_query(query)
        first_count = len(log)
        drivers["top"].answer_user_query(query)
        assert len(log) > first_count
        # And the site database stayed pristine.
        assert get_status(dbs["top"].find(OAKLAND)) is Status.INCOMPLETE

    def test_caching_disabled_copies_only_to_merge(self, paper_doc):
        drivers, dbs, _log = build_mesh(paper_doc, cache_results=False)
        fetched = drivers["top"].gather(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']")
        assert fetched.subqueries_sent and fetched.view is not dbs["top"]
        # An owner's local answer merges nothing, so nothing is copied.
        local = drivers["oak"].gather(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']")
        assert not local.subqueries_sent and local.view is dbs["oak"]

    def test_partial_match_after_narrower_query(self, paper_doc):
        """Figure-2-style partial-match: block 1 cached via an earlier
        query is reused; only block 2 is fetched."""
        drivers, _dbs, log = build_mesh(paper_doc)
        drivers["top"].answer_user_query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']")
        log.clear()
        results, _ = drivers["top"].answer_user_query(
            PREFIX + "/neighborhood[@id='Oakland']"
            "/block[@id='1' or @id='2']")
        assert len(results) == 2
        assert all("block[@id = '2']" in q for _s, _t, q in log)

    @pytest.mark.parametrize("cache_results", [True, False])
    def test_gathers_leave_every_owner_as_it_was(self, paper_doc,
                                                 cache_results):
        drivers, dbs, log = build_mesh(paper_doc,
                                       cache_results=cache_results)
        owners = {site: serialize(dbs[site].root, use_cache=False)
                  for site in ("oak", "shady")}
        for query in (FIGURE2_QUERY,
                      PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']",
                      PREFIX + "/neighborhood[@id='Shadyside']/block"):
            assert drivers["top"].answer_user_query(query)[0]
        assert {target for _site, target, _query in log} >= {"oak", "shady"}
        assert {site: serialize(dbs[site].root, use_cache=False)
                for site in owners} == owners

    def test_empty_answer_for_nonexistent(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        results, outcome = drivers["top"].answer_user_query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='99']")
        assert results == []

    def test_negative_remote_answer_not_repeated(self, paper_doc):
        drivers, _dbs, log = build_mesh(paper_doc)
        query = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
                 "/parkingSpace[available='nope']")
        results, outcome = drivers["top"].answer_user_query(query)
        assert results == []
        assert outcome.rounds <= 3


class TestScalars:
    def test_count(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        count = drivers["top"].answer_scalar(
            f"count({PREFIX}/neighborhood[@id='Oakland']"
            "//parkingSpace[available='yes'])")
        assert count == 2.0

    def test_boolean(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        assert drivers["shady"].answer_scalar(
            f"boolean({PREFIX}/neighborhood[@id='Oakland'])") is True

    def test_sum(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        total = drivers["top"].answer_scalar(
            f"sum({PREFIX}/neighborhood[@id='Shadyside']"
            "/block[@id='1']/parkingSpace/price)")
        assert total == 75.0

    def test_unsupported_scalar_rejected(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        with pytest.raises(CoreError):
            drivers["top"].answer_scalar("concat('a', 'b')")


class TestNestedGather:
    NESTED = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
              "/parkingSpace[not(price > ../parkingSpace/price)]")

    def test_fetch_subtree_strategy(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        results, outcome = drivers["shady"].answer_user_query(self.NESTED)
        assert [r.child("price").text for r in results] == ["0"]

    def test_existence_predicate(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        query = PREFIX + "[./neighborhood[@id='Oakland']]/neighborhood"
        results, _ = drivers["shady"].answer_user_query(query)
        assert {r.id for r in results} == {"Oakland", "Shadyside"}

    def test_existence_predicate_false(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        query = PREFIX + "[./neighborhood[@id='Nowhere']]/neighborhood"
        results, _ = drivers["shady"].answer_user_query(query)
        assert results == []


class TestSubqueryAnswering:
    def test_answer_subquery_is_wire_fragment(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        fragment = drivers["oak"].answer_subquery(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']")
        assert fragment.tag == "usRegion"
        assert "status=" in serialize(fragment)

    def test_answer_any_dispatches(self, paper_doc):
        drivers, _dbs, _log = build_mesh(paper_doc)
        assert drivers["oak"].answer_any(
            "boolean(" + PREFIX + ")") is True
        fragment = drivers["oak"].answer_any(
            PREFIX + "/neighborhood[@id='Oakland']")
        assert fragment.tag == "usRegion"


class TestFailureModes:
    def test_dead_remote_raises_gather_error(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        dbs = plan.partition(paper_doc)[1]
        schema = HierarchySchema.from_document(paper_doc)

        def broken_send(pending):
            raise ConnectionError("site down")

        driver = GatherDriver(dbs["top"], broken_send, schema=schema)
        with pytest.raises(ConnectionError):
            driver.answer_user_query(
                PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']")

    def test_unhelpful_remote_detected(self, paper_doc):
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        dbs = plan.partition(paper_doc)[1]
        schema = HierarchySchema.from_document(paper_doc)
        # A remote that always returns nothing: queries still terminate
        # (absence is an acceptable answer), with empty results.
        driver = GatherDriver(dbs["top"],
                              lambda pending: [None] * len(pending),
                              schema=schema)
        results, _ = driver.answer_user_query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']")
        assert results == []
