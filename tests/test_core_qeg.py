"""Unit tests for the QEG walker: the four status cases and beyond."""

import pytest

from repro.core import (
    PartitionPlan,
    SensorDatabase,
    Status,
    Subquery,
    UnsupportedDistributedQueryError,
    compile_pattern,
    fragment_violations,
    get_status,
    render_id_path_query,
    run_qeg,
)
from repro.core import qeg
from repro.xmlkit import parse_fragment

from tests.conftest import (
    FIGURE2_QUERY,
    OAKLAND,
    PITTSBURGH,
    SHADYSIDE,
    id_path,
)

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


def _no_data(result):
    """True when a QEG answer carries no local information (only ID
    scaffolding / negative knowledge)."""
    if result.answer is None:
        return True
    from repro.core import Status, get_status

    return all(
        get_status(node) is not Status.COMPLETE
        for node in result.answer.iter()
    )



@pytest.fixture
def dbs(paper_doc):
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
    })
    return plan.build_databases(paper_doc)


class TestCompilePattern:
    def test_items_from_steps(self, paper_schema):
        pattern = compile_pattern(FIGURE2_QUERY, schema=paper_schema)
        assert len(pattern.items) == 7
        assert not pattern.has_nesting

    def test_descendant_flag(self, paper_schema):
        pattern = compile_pattern("/usRegion[@id='NE']//parkingSpace",
                                  schema=paper_schema)
        assert pattern.items[1].descendant

    def test_relative_query_rejected(self, paper_schema):
        with pytest.raises(UnsupportedDistributedQueryError):
            compile_pattern("a/b", schema=paper_schema)

    def test_scalar_rejected(self, paper_schema):
        with pytest.raises(UnsupportedDistributedQueryError):
            compile_pattern("count(/a)", schema=paper_schema)

    def test_parent_axis_on_main_path_rejected(self, paper_schema):
        with pytest.raises(UnsupportedDistributedQueryError):
            compile_pattern("/a/../b", schema=paper_schema)

    def test_trailing_descendant_rejected(self, paper_schema):
        from repro.xpath.errors import XPathSyntaxError

        # "/a//" is already a syntax error at the XPath level.
        with pytest.raises((UnsupportedDistributedQueryError,
                            XPathSyntaxError)):
            compile_pattern("/a//", schema=paper_schema)

    def test_collect_index_for_nested(self, paper_schema):
        pattern = compile_pattern(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
            "/parkingSpace[not(price > ../parkingSpace/price)]",
            schema=paper_schema,
        )
        assert pattern.collect_index == 5  # the block item

    def test_consistency_sugar_rewritten(self, paper_schema):
        pattern = compile_pattern(
            PREFIX + "/neighborhood[@id='Oakland'][timestamp > now - 30]",
            schema=paper_schema,
        )
        split = pattern.items[4].split
        assert len(split.consistency_predicates) == 1


class TestPatternCompileCache:
    def test_recompile_served_from_schema_cache(self, paper_doc):
        from repro.core import HierarchySchema

        schema = HierarchySchema.from_document(paper_doc)
        first = compile_pattern(FIGURE2_QUERY, schema=schema)
        second = compile_pattern(FIGURE2_QUERY, schema=schema)
        assert second is first
        assert schema.compiled_patterns.stats["hits"] == 1

    def test_per_text_compile_bypasses_the_memo(self, paper_doc,
                                                monkeypatch):
        from repro.core import HierarchySchema
        from repro.core.qeg import _compile
        from repro.xpath import parser

        schema = HierarchySchema.from_document(paper_doc)
        first = compile_pattern(FIGURE2_QUERY, schema=schema)
        parses = []
        original = parser.parse

        def counting(text):
            parses.append(text)
            return original(text)

        monkeypatch.setattr(parser, "parse", counting)
        fresh = _compile(FIGURE2_QUERY, schema)
        again = _compile(FIGURE2_QUERY, schema)
        assert fresh is not first and again is not fresh
        assert fresh.source == first.source == again.source
        # Naive creation parses every time: no parse memo either.
        assert parses == [FIGURE2_QUERY, FIGURE2_QUERY]

    def test_cache_bounded(self, paper_doc):
        from repro.core import HierarchySchema

        schema = HierarchySchema.from_document(paper_doc)
        schema.compiled_patterns.max_entries = 2
        for block in ("1", "2", "3"):
            compile_pattern(PREFIX + "/neighborhood[@id='Oakland']"
                            f"/block[@id='{block}']", schema=schema)
        # The shape's template and each text take an entry, but the
        # LRU budget holds regardless.
        assert len(schema.compiled_patterns) == 2
        assert schema.compiled_patterns.stats["evictions"] >= 1

    def test_schema_mutation_invalidates(self, paper_doc):
        from repro.core import HierarchySchema

        schema = HierarchySchema.from_document(paper_doc)
        compile_pattern(FIGURE2_QUERY, schema=schema)
        assert len(schema.compiled_patterns) > 0
        schema.register_child("block", "meter")  # new IDable tag
        assert len(schema.compiled_patterns) == 0
        recompiled = compile_pattern(FIGURE2_QUERY, schema=schema)
        assert recompiled.is_idable_tag("meter")

    def test_schemaless_compiles_share_global_cache(self):
        from repro.core.qeg import PATTERN_CACHE

        PATTERN_CACHE.clear()
        first = compile_pattern("/top[@id='R']/mid")
        second = compile_pattern("/top[@id='R']/mid")
        assert second is first

    def test_driver_compile_uses_cache(self, paper_doc):
        from repro.core import GatherDriver, HierarchySchema, PartitionPlan

        schema = HierarchySchema.from_document(paper_doc)
        plan = PartitionPlan({"one": [id_path("usRegion=NE")]})
        db = plan.build_databases(paper_doc)["one"]
        driver = GatherDriver(db, send=lambda pending: [None] * len(pending),
                              schema=schema)
        first = driver.compile(FIGURE2_QUERY)
        assert driver.compile(FIGURE2_QUERY) is first

    def test_concurrent_texts_of_a_new_shape_build_it_once(
            self, paper_doc, monkeypatch):
        """Sites answering a fan-out's subqueries meet a new shape at
        once: one of them builds its template, the others wait for it."""
        import sys
        import threading

        from repro.core import HierarchySchema
        from repro.core import qeg

        schema = HierarchySchema.from_document(paper_doc)
        builds = []
        original = qeg._build_template

        def counting(parts, text, schema):
            builds.append(text)
            return original(parts, text, schema)

        monkeypatch.setattr(qeg, "_build_template", counting)
        texts = [PREFIX + f"/neighborhood[@id='n{i}']/block[@id='{i}']"
                 for i in range(8)]
        start = threading.Barrier(len(texts))
        compiled = {}

        def compile_one(text):
            start.wait(timeout=10)
            compiled[text] = compile_pattern(text, schema=schema)

        threads = [threading.Thread(target=compile_one, args=(text,))
                   for text in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert sorted(compiled) == sorted(texts)
        assert [compiled[text].items[-1].pinned_ids for text in texts] == \
            [{str(i)} for i in range(len(texts))]


class TestOwnedCase:
    def test_fully_local_answer(self, dbs, paper_schema):
        query = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
                 "/parkingSpace[available='yes']")
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert result.is_complete
        assert result.answer is not None

    def test_pruned_by_predicate(self, dbs, paper_schema):
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[@zipcode='00000']/block")
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert result.is_complete
        assert _no_data(result)

    def test_predicates_over_child_id_stubs(self, dbs, paper_schema):
        """Local information includes child IDs, so counting them works."""
        query = PREFIX + "/neighborhood[@id='Oakland'][count(block) = 2]"
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert result.is_complete
        assert result.answer is not None

    def test_answer_fragment_is_cacheable(self, dbs, paper_doc,
                                          paper_schema):
        query = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert fragment_violations(result.answer, paper_doc) == []


class TestIncompleteCase:
    def test_id_predicate_prunes_without_subquery(self, dbs, paper_schema):
        query = PREFIX + "/neighborhood[@id='Nonexistent']/block"
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema))
        assert result.is_complete
        assert _no_data(result)

    def test_matching_stub_asks(self, dbs, paper_schema):
        query = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema))
        assert len(result.subqueries) == 1
        subquery = result.subqueries[0]
        assert subquery.reason == Subquery.INCOMPLETE
        assert subquery.anchor_path == OAKLAND
        assert subquery.query.endswith("/block[@id = '1']")

    def test_residual_keeps_non_id_predicates(self, dbs, paper_schema):
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "/block[@id='1'][count(parkingSpace) > 0]")
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema))
        assert "count(parkingSpace) > 0" in result.subqueries[0].query

    def test_disjunction_fans_out(self, dbs, paper_schema):
        result = run_qeg(dbs["top"],
                         compile_pattern(FIGURE2_QUERY, paper_schema))
        anchors = {s.anchor_path for s in result.subqueries}
        assert anchors == {OAKLAND, SHADYSIDE}


class TestIdCompleteCase:
    def test_pass_through_to_idable_children(self, dbs, paper_schema):
        # At oak, the city is id-complete; neighborhoods below are the
        # owned region or stubs.
        query = PREFIX + "/neighborhood/block[@id='1']"
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        # Oakland answered locally; Shadyside needs a subquery.
        assert any(s.anchor_path == SHADYSIDE for s in result.subqueries)
        assert result.answer is not None

    def test_local_info_required_asks(self, dbs, paper_schema):
        # Selecting the city itself needs its local information, which
        # the id-complete copy lacks.
        query = PREFIX
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert result.subqueries
        assert result.subqueries[0].reason in (
            Subquery.ID_COMPLETE, Subquery.MISSING_SUBTREE)

    def test_non_idable_content_asks(self, dbs, paper_schema):
        # available-spaces lives in the neighborhood's local info, which
        # "top" does not store.
        query = PREFIX + "/neighborhood[@id='Oakland']/available-spaces"
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema))
        assert result.subqueries

    def test_rest_predicate_at_id_complete_asks(self, dbs, paper_schema):
        query = PREFIX + "[@someattr='x']/neighborhood[@id='Oakland']"
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert result.subqueries
        assert result.subqueries[0].reason == Subquery.ID_COMPLETE


class TestCompleteCaseConsistency:
    def _cached_oakland_at_top(self, dbs, paper_schema, timestamp):
        # Cache Oakland at top via a real subquery round.
        query = PREFIX + "/neighborhood[@id='Oakland']"
        remote = run_qeg(dbs["oak"],
                         compile_pattern(query, paper_schema))
        dbs["top"].store_fragment(remote.answer)
        element = dbs["top"].find(OAKLAND)
        element.set("timestamp", repr(float(timestamp)))
        return element

    def test_fresh_cache_used(self, dbs, paper_schema):
        self._cached_oakland_at_top(dbs, paper_schema, timestamp=995.0)
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp() > current-time() - 30]")
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema),
                         now=1000.0)
        stale_asks = [s for s in result.subqueries
                      if s.reason == Subquery.STALE]
        assert not stale_asks

    def test_stale_cache_asks_owner(self, dbs, paper_schema):
        self._cached_oakland_at_top(dbs, paper_schema, timestamp=900.0)
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp() > current-time() - 30]")
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema),
                         now=1000.0)
        assert any(s.reason == Subquery.STALE for s in result.subqueries)

    def test_owner_ignores_consistency(self, dbs, paper_schema):
        # Make the owner's copy ancient; it must still answer.
        element = dbs["oak"].find(OAKLAND)
        element.set("timestamp", "1.0")
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp() > current-time() - 30]")
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema),
                         now=1000.0)
        assert result.is_complete
        assert result.answer is not None

    def test_unseparable_predicate_asks(self, dbs, paper_schema):
        self._cached_oakland_at_top(dbs, paper_schema, timestamp=995.0)
        query = (PREFIX + "/neighborhood[@id='Oakland' or "
                 "timestamp() > current-time() - 30]")
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema),
                         now=1000.0)
        assert any(s.reason == Subquery.UNSEPARABLE
                   for s in result.subqueries)


class TestDescendantQueries:
    def test_descendant_over_incomplete_asks(self, dbs, paper_schema):
        query = "/usRegion[@id='NE']//parkingSpace[available='yes']"
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        # Oakland's spaces answered locally; remote stubs become // asks.
        assert result.answer is not None
        assert all("//" in s.query for s in result.subqueries)

    def test_descendant_local_only(self, dbs, paper_schema):
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "//parkingSpace[price='0']")
        result = run_qeg(dbs["oak"], compile_pattern(query, paper_schema))
        assert result.is_complete


class TestNestingStrategies:
    NESTED = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
              "/parkingSpace[not(price > ../parkingSpace/price)]")

    def test_fetch_subtree_local(self, dbs, paper_schema):
        result = run_qeg(dbs["oak"], compile_pattern(self.NESTED,
                                                     paper_schema))
        assert result.is_complete
        assert result.answer is not None

    def test_fetch_subtree_remote_asks_whole_subtree(self, dbs,
                                                     paper_schema):
        result = run_qeg(dbs["top"], compile_pattern(self.NESTED,
                                                     paper_schema))
        fetches = [s for s in result.subqueries
                   if s.reason in (Subquery.NESTED_FETCH,
                                   Subquery.INCOMPLETE)]
        assert fetches
        # The fetch targets the block (the earliest referenced tag), or
        # the neighborhood stub on the way there.
        assert fetches[0].anchor_path[:5] == OAKLAND

    def test_fetch_subtree_asks_only_pinned_siblings(self, dbs,
                                                     paper_schema):
        # P_id is decided before anything is asked (Section 3.5): the
        # sibling the id pin excludes costs no WAN message.
        query = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[./block/parkingSpace/available='yes']/block")
        pattern = compile_pattern(query, paper_schema)
        result = run_qeg(dbs["top"], pattern)
        [ask] = result.subqueries
        assert ask.anchor_path == OAKLAND
        assert not any("Shadyside" in s.query for s in result.subqueries)

    EXISTS = PREFIX + "[./neighborhood[@id='{}']]/neighborhood"

    def _fetch_and_store(self, dbs, paper_doc, paper_schema, pattern):
        """Answer the walk's one nested fetch from a site owning the
        whole document and cache the reply at shady."""
        [fetch] = run_qeg(dbs["shady"], pattern).subqueries
        whole = PartitionPlan({"all": [id_path("usRegion=NE")]}) \
            .build_databases(paper_doc)["all"]
        reply = run_qeg(whole, compile_pattern(fetch.query, paper_schema))
        assert reply.is_complete
        dbs["shady"].store_fragment(reply.answer)

    def test_existence_predicate_fetches_the_city_subtree(self, dbs,
                                                          paper_schema):
        # The predicate is evaluated at the city, the earliest tag it
        # references: one fetch of that whole subtree.
        pattern = compile_pattern(self.EXISTS.format("Oakland"),
                                  paper_schema)
        [fetch] = run_qeg(dbs["shady"], pattern).subqueries
        assert fetch.reason == Subquery.NESTED_FETCH
        assert fetch.subtree
        assert fetch.anchor_path == PITTSBURGH
        assert fetch.query == render_id_path_query(PITTSBURGH)

    def test_fetched_subtree_answers_locally(self, dbs, paper_doc,
                                             paper_schema):
        pattern = compile_pattern(self.EXISTS.format("Oakland"),
                                  paper_schema)
        self._fetch_and_store(dbs, paper_doc, paper_schema, pattern)
        result = run_qeg(dbs["shady"], pattern)
        assert result.is_complete
        assert [node.id for node in result.matches] == \
            ["Oakland", "Shadyside"]

    def test_fetched_subtree_false_predicate_prunes(self, dbs, paper_doc,
                                                    paper_schema):
        pattern = compile_pattern(self.EXISTS.format("Nowhere"),
                                  paper_schema)
        self._fetch_and_store(dbs, paper_doc, paper_schema, pattern)
        result = run_qeg(dbs["shady"], pattern)
        assert result.is_complete
        assert result.matches == []

    def test_a_collect_point_without_an_id_is_judged_at_its_idable_ancestor(
            self):
        # `*` reaches `<v>` as well as `<n>`: the data below `<v>` is the
        # owned root's, not a region of its own to ask for by (tag, None).
        tree = parse_fragment(
            '<root id="R" status="owned"><v>0</v><n id="0" status="owned">'
            '<v>0</v><n id="0" status="owned"/><n id="1" status="owned"/>'
            "</n></root>")
        pattern = compile_pattern("/root[@id='R']/*/n[@id='0'][../n[@id='1']]")
        result = run_qeg(SensorDatabase(tree), pattern)
        assert result.is_complete
        [match] = result.matches
        assert match.id == "0" and match.parent.id == "0"

    def test_a_collect_point_without_an_id_fetches_its_idable_ancestor(self):
        tree = parse_fragment(
            '<root id="R" status="complete"><v>0</v>'
            '<n id="0" status="incomplete"/></root>')
        pattern = compile_pattern("/root[@id='R']/*/n[@id='0'][../n[@id='1']]")
        fetches = [ask for ask in run_qeg(SensorDatabase(tree),
                                          pattern).subqueries
                   if ask.reason == Subquery.NESTED_FETCH]
        assert [ask.anchor_path for ask in fetches] == [(("root", "R"),)]


class TestExactPinsDecidePid:
    """P_id goes first (Section 3.5); pins that are its whole meaning
    decide it by a set test, so the evaluator never sees it."""

    def _pid_evaluations(self, dbs, paper_schema, monkeypatch, block_step):
        pattern = compile_pattern(
            PREFIX + "/neighborhood[@id='Oakland']/" + block_step,
            paper_schema)
        block_pid = pattern.items[-1].split.id_predicates
        assert block_pid  # the step's predicate is id-only
        seen = []
        original = qeg._EVALUATOR.evaluate

        def recording(predicate, node, *args, **kwargs):
            if any(predicate is p for p in block_pid):
                seen.append(node.id)
            return original(predicate, node, *args, **kwargs)

        monkeypatch.setattr(qeg._EVALUATOR, "evaluate", recording)
        result = run_qeg(dbs["oak"], pattern)
        assert result.is_complete
        return seen, result

    def test_an_exact_pin_never_reaches_the_evaluator(
            self, dbs, paper_schema, monkeypatch):
        seen, result = self._pid_evaluations(
            dbs, paper_schema, monkeypatch, "block[@id='1' or @id='2']")
        assert seen == []
        assert sorted(node.id for node in result.matches) == ["1", "2"]

    def test_an_id_test_the_pins_cannot_express_is_evaluated(
            self, dbs, paper_schema, monkeypatch):
        seen, result = self._pid_evaluations(
            dbs, paper_schema, monkeypatch, "block[@id!='1']")
        assert sorted(seen) == ["1", "2"]
        assert [node.id for node in result.matches] == ["2"]


class TestSubsumption:
    def test_all_children_cached_answers_wildcard(self, dbs, paper_doc,
                                                  paper_schema):
        """Section 3.3: once every neighborhood is cached at the city's
        site, a query over all neighborhoods is answered locally."""
        for neighborhood in ("Oakland", "Shadyside"):
            query = PREFIX + f"/neighborhood[@id='{neighborhood}']"
            owner = "oak" if neighborhood == "Oakland" else "shady"
            remote = run_qeg(dbs[owner],
                             compile_pattern(query, paper_schema))
            dbs["top"].store_fragment(remote.answer)
        wildcard = PREFIX + "/neighborhood"
        result = run_qeg(dbs["top"], compile_pattern(wildcard, paper_schema))
        # Both neighborhoods' local info is needed AND cached; but their
        # blocks (subtrees) are not -> subtree fetches, not failures.
        reasons = {s.reason for s in result.subqueries}
        assert reasons <= {Subquery.MISSING_SUBTREE}

    def test_wildcard_leaf_level(self, dbs, paper_schema):
        # Cache everything under Oakland at top, then ask for its spaces.
        remote = run_qeg(
            dbs["oak"],
            compile_pattern(PREFIX + "/neighborhood[@id='Oakland']"
                            "/block[@id='1']", paper_schema))
        dbs["top"].store_fragment(remote.answer)
        query = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
                 "/parkingSpace[available='yes']")
        result = run_qeg(dbs["top"], compile_pattern(query, paper_schema))
        assert result.is_complete


def test_empty_root_site_asks(paper_doc, paper_schema):
    """A site holding only the root stub forwards everything."""
    from repro.core import SensorDatabase

    db = SensorDatabase.empty("usRegion", "NE")
    result = run_qeg(db, compile_pattern(
        "/usRegion[@id='NE']/state[@id='PA']", paper_schema))
    assert result.subqueries
    assert result.subqueries[0].anchor_path == ((("usRegion"), ("NE")),)
