"""Unit tests for subquery subsumption in the gather driver."""

import pytest

from repro.core import PartitionPlan, Subquery, compile_pattern, run_qeg
from repro.core.gather import _is_path_prefix, _subsumed_by

from tests.conftest import OAKLAND, PITTSBURGH, SHADYSIDE, id_path

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


@pytest.fixture
def pattern(paper_schema):
    return compile_pattern(
        PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
        "/parkingSpace[available='yes']",
        schema=paper_schema,
    )


def _sq(anchor, consumed=None, gap=False, subtree=False):
    return Subquery("/q", anchor, Subquery.INCOMPLETE,
                    consumed=consumed, descendant_gap=gap, subtree=subtree)


class TestPathPrefix:
    def test_prefix_relation(self):
        assert _is_path_prefix(PITTSBURGH, OAKLAND)
        assert _is_path_prefix(OAKLAND, OAKLAND)
        assert not _is_path_prefix(OAKLAND, PITTSBURGH)
        assert not _is_path_prefix(SHADYSIDE, OAKLAND)


class TestSubsumption:
    def test_deeper_aligned_ask_subsumed(self, pattern):
        # Answered: neighborhood-anchored ask consuming 5 items (the
        # neighborhood step); pending: block-anchored ask consuming 6.
        answered = [_sq(OAKLAND, consumed=5)]
        pending = _sq(OAKLAND + (("block", "1"),), consumed=6)
        assert _subsumed_by(pending, answered, pattern)

    def test_same_ask_shape_subsumed(self, pattern):
        answered = [_sq(OAKLAND, consumed=5)]
        pending = _sq(OAKLAND, consumed=5)
        assert _subsumed_by(pending, answered, pattern)

    def test_sibling_not_subsumed(self, pattern):
        answered = [_sq(OAKLAND, consumed=5)]
        pending = _sq(SHADYSIDE, consumed=5)
        assert not _subsumed_by(pending, answered, pattern)

    def test_misaligned_consumption_not_subsumed(self, pattern):
        # The pending ask starts an *earlier* pattern position than the
        # depth difference explains -- it may select different data.
        answered = [_sq(OAKLAND, consumed=5)]
        pending = _sq(OAKLAND + (("block", "1"),), consumed=5)
        assert not _subsumed_by(pending, answered, pattern)

    def test_subtree_fetch_subsumes_everything_below(self, pattern):
        answered = [_sq(OAKLAND, subtree=True)]
        for pending in (
            _sq(OAKLAND + (("block", "1"),), consumed=6),
            _sq(OAKLAND + (("block", "2"),), subtree=True),
            _sq(OAKLAND + (("block", "1"),), consumed=5, gap=True),
        ):
            assert _subsumed_by(pending, answered, pattern)

    def test_narrow_ask_does_not_subsume_subtree_fetch(self, pattern):
        answered = [_sq(OAKLAND, consumed=5)]
        pending = _sq(OAKLAND + (("block", "1"),), subtree=True)
        assert not _subsumed_by(pending, answered, pattern)

    def test_descendant_gap_blocks_subsumption(self, pattern):
        answered = [_sq(OAKLAND, consumed=5, gap=True)]
        pending = _sq(OAKLAND + (("block", "1"),), consumed=6)
        assert not _subsumed_by(pending, answered, pattern)

    def test_descendant_pattern_items_block_alignment(self, paper_schema):
        pattern = compile_pattern(
            PREFIX + "/neighborhood[@id='Oakland']//parkingSpace",
            schema=paper_schema)
        # items: ... neighborhood(4), parkingSpace(5, descendant)
        answered = [_sq(OAKLAND, consumed=5)]
        pending = _sq(OAKLAND + (("block", "1"),), consumed=6)
        # The in-between item is a // item: depth alignment proves
        # nothing, so no subsumption.
        assert not _subsumed_by(pending, answered, pattern)

    def test_walk_nested_fetch_subsumes_asks_below(self, paper_doc,
                                                   paper_schema):
        # The fetch a nested predicate makes carries the whole subtree:
        # no ask anchored under it goes out again.
        pattern = compile_pattern(
            PREFIX + "[./neighborhood[@id='Oakland']]/neighborhood",
            schema=paper_schema)
        top = PartitionPlan({
            "top": [id_path("usRegion=NE")], "oak": [OAKLAND],
        }).build_databases(paper_doc)["top"]
        [fetch] = run_qeg(top, pattern).subqueries
        assert fetch.reason == Subquery.NESTED_FETCH
        for pending in (_sq(SHADYSIDE, consumed=5),
                        _sq(OAKLAND + (("block", "1"),), subtree=True)):
            assert _subsumed_by(pending, [fetch], pattern)
        assert not _subsumed_by(_sq(PITTSBURGH[:3], subtree=True), [fetch],
                                pattern)


class TestSubsumptionEndToEnd:
    def test_predicate_query_one_round_trip_per_region(self, paper_doc,
                                                       paper_schema):
        """The Section-2-style query makes exactly one subquery per
        missing neighborhood, not one per parking-space stub."""
        from repro.core import GatherDriver

        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
            "shady": [SHADYSIDE],
        })
        dbs = plan.build_databases(paper_doc)
        drivers = {}

        def make_send(_site):
            def send(subquery):
                path = tuple(tuple(e) for e in subquery.anchor_path)
                target = "oak" if path[:5] == OAKLAND else "shady"
                return drivers[target].answer_any(subquery.query)
            return send

        for site, db in dbs.items():
            drivers[site] = GatherDriver(db, make_send(site),
                                         schema=paper_schema)
        query = (PREFIX + "/neighborhood[@id='Oakland' or @id='Shadyside']"
                 "/block[@id='1']/parkingSpace[available='yes']")
        results, outcome = drivers["top"].answer_user_query(query)
        assert len(results) == 3
        assert len(outcome.subqueries_sent) == 2  # one per neighborhood
