"""Canonical keys and the summary store.

Covers ``repro.core.semcache`` in isolation (the canonicalizer and its
bounds), the aggregation summaries' store (``repro.agg.summaries``),
and their integration points: the QEG compile cache keyed by canonical form, jittered bounds
end to end (a subquery carries the caller's own bound), and the
EXPLAIN cache section.
"""

from repro.agg import summary_key
from repro.agg.summaries import SUMMARY_MAX_ENTRIES, SummaryStore
from repro.core.qeg import compile_pattern, pattern_key_stats
from repro.core.semcache import canonical_key, canonicalize
from repro.net import Cluster

from tests.conftest import FIGURE2_QUERY

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


# ----------------------------------------------------------------------
# Canonicalizer
# ----------------------------------------------------------------------
class TestCanonicalizer:
    def test_whitespace_jitter_shares_key(self):
        tight = f"count({PREFIX}//parkingSpace[available='yes'])"
        spaced = (f"count( {PREFIX}//parkingSpace[ available = 'yes' ] )")
        assert canonical_key(tight) == canonical_key(spaced)

    def test_predicate_order_shares_key(self):
        a = PREFIX + "//parkingSpace[available='yes'][price='0']"
        b = PREFIX + "//parkingSpace[price='0'][available='yes']"
        assert canonical_key(a) == canonical_key(b)

    def test_duplicate_predicates_collapse(self):
        once = PREFIX + "//parkingSpace[available='yes']"
        twice = PREFIX + "//parkingSpace[available='yes'][available='yes']"
        assert canonical_key(once) == canonical_key(twice)

    def test_literal_flipped_equality_shares_key(self):
        conventional = PREFIX + "//parkingSpace[available='yes']"
        yoda = PREFIX + "//parkingSpace['yes'=available]"
        assert canonical_key(conventional) == canonical_key(yoda)

    def test_mirrored_comparison_shares_key(self):
        lt = PREFIX + "//parkingSpace[price < 30]"
        gt = PREFIX + "//parkingSpace[30 > price]"
        assert canonical_key(lt) == canonical_key(gt)

    def test_or_chain_commutes(self):
        a = PREFIX + "/neighborhood[@id='Oakland' or @id='Shadyside']"
        b = PREFIX + "/neighborhood[@id='Shadyside' or @id='Oakland']"
        assert canonical_key(a) == canonical_key(b)

    def test_consistency_sugar_shares_key(self):
        sugar = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp > now - 30]")
        explicit = (PREFIX + "/neighborhood[@id='Oakland']"
                    "[timestamp() > current-time() - 30]")
        assert canonical_key(sugar) == canonical_key(explicit)

    def test_canonicalization_is_idempotent(self):
        for query in (
            FIGURE2_QUERY,
            f"count({PREFIX}//parkingSpace[ 'yes' = available ])",
            PREFIX + "/neighborhood[@id='Oakland'][timestamp > now - 28]",
        ):
            once = canonical_key(query)
            assert canonical_key(once) == once

    def test_a_child_named_like_the_sugar_stays_a_child(self):
        for name, sugar in (("timestamp", "timestamp()"),
                            ("now", "current-time()")):
            for query in (f"/a[./{name} > 5]", f"/a[{name}/. > 5]",
                          f"/a[./{name} = now - 5]", f"/a[./{name}]"):
                once = canonical_key(query)
                assert canonical_key(once) == once, query
                assert sugar not in once.split("=")[0], query
            assert canonical_key(f"/a[./{name} > 5]") != \
                canonical_key(f"/a[{name} > 5]")

    def test_the_shipped_residual_selects_the_child_element(self):
        from repro.core.subquery import render_residual_query
        from repro.xmlkit import parse_fragment
        from repro.xpath import evaluate_xpath

        # The child says 10 where the freshness stamp says 1, and the
        # other way round: the two readings select different nodes.
        document = parse_fragment(
            "<a id='x'><b id='1' timestamp='1.0'><timestamp>10</timestamp>"
            "</b><b id='2' timestamp='100.0'><timestamp>1</timestamp></b>"
            "</a>")
        pattern = compile_pattern("/a[@id='x']/b[./timestamp > 5]")
        shipped = render_residual_query((("a", "x"),), [],
                                        pattern.items[1:])
        assert "./timestamp > 5" in shipped
        selected = evaluate_xpath(shipped, document)
        assert [node.get("id") for node in selected] == ["1"]

    def test_distinct_queries_keep_distinct_keys(self):
        a = PREFIX + "//parkingSpace[available='yes']"
        b = PREFIX + "//parkingSpace[available='no']"
        assert canonical_key(a) != canonical_key(b)

    def test_ast_input_accepted(self):
        from repro.xpath import parser

        ast = parser.parse(FIGURE2_QUERY)
        assert canonicalize(ast).key == canonical_key(FIGURE2_QUERY)

    def test_jittered_tolerances_share_a_summary_key(self):
        tight = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp > now - 28]")
        loose = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp > now - 30]")
        tight_canon = canonicalize(tight)
        loose_canon = canonicalize(loose)
        assert tight_canon.key != loose_canon.key
        shared = summary_key((), tight_canon.ast)
        assert shared == summary_key((), loose_canon.ast)
        assert "timestamp" not in shared
        assert tight_canon.min_tolerance == 28
        assert loose_canon.min_tolerance == 30

    def test_unbounded_query_has_no_tolerance(self):
        canon = canonicalize(FIGURE2_QUERY)
        assert canon.key == canonical_key(FIGURE2_QUERY)
        assert canon.min_tolerance is None

    def test_other_consistency_conjuncts_stay_in_the_summary_key(self):
        canon = canonicalize(PREFIX + "/neighborhood[@id='Oakland']"
                             "[timestamp() > 500 and"
                             " timestamp() > current-time() - 30]")
        key = summary_key((), canon.ast)
        assert "timestamp() > 500" in key
        assert "current-time()" not in key
        assert canon.min_tolerance == 30


# ----------------------------------------------------------------------
# The summary store
# ----------------------------------------------------------------------
def _filled(store, count, now=0.0):
    """Store *count* filler summaries, ``f0`` first."""
    for index in range(count):
        store.store(f"f{index}", index, now=now)


class TestSummaryStore:
    def test_store_then_hit(self):
        cache = SummaryStore()
        cache.store("k", 42, now=100.0)
        entry = cache.lookup("k", now=110.0, max_age=30)
        assert entry.value == 42
        assert cache.stats["hits"] == 1
        assert entry.hits == 1

    def test_no_bound_and_no_max_age_take_any_age(self):
        cache = SummaryStore()
        cache.store("k", 42, now=100.0, as_of=float("-inf"))
        assert cache.lookup("k", now=10_000.0).value == 42
        assert cache.stats["hits"] == 1

    def test_a_bound_is_never_served_data_of_unknown_age(self):
        cache = SummaryStore()
        cache.store("k", 42, now=100.0, as_of=float("-inf"))
        assert cache.lookup("k", now=100.0, bound=900.0) is None
        assert cache.lookup("k", now=100.0, max_age=900.0).value == 42

    def test_a_zero_bound_is_never_served(self):
        # The ``timestamp() > current-time() - 0`` rule: data stamped
        # now is not newer than now.
        cache = SummaryStore()
        cache.store("k", 42, now=100.0, as_of=100.0)
        assert cache.lookup("k", now=100.0, bound=0.0) is None
        assert cache.lookup("k", now=100.0, bound=1.0).value == 42

    def test_stale_entry_rejected(self):
        cache = SummaryStore()
        cache.store("k", 42, now=100.0)
        assert cache.lookup("k", now=200.0, max_age=30) is None
        assert cache.stats["stale_rejects"] == 1

    def test_lru_eviction_by_entry_budget(self):
        cache = SummaryStore()
        cache.store("a", 1, now=0.0)
        cache.store("b", 2, now=0.0)
        _filled(cache, SUMMARY_MAX_ENTRIES - 2)
        cache.lookup("a", now=0.0, max_age=10)  # touch a; b is now LRU
        cache.store("c", 3, now=0.0)
        assert cache.peek("a") is not None and cache.peek("c") is not None \
            and cache.peek("b") is None
        assert cache.stats["evictions"] == 1

    def test_peek_does_not_touch_counters_or_order(self):
        cache = SummaryStore()
        cache.store("a", 1, now=0.0)
        cache.store("b", 2, now=0.0)
        _filled(cache, SUMMARY_MAX_ENTRIES - 2)
        assert cache.peek("a").value == 1
        assert cache.stats["hits"] == 0
        cache.store("c", 3, now=0.0)  # peek did not promote a
        assert cache.peek("a") is None

    def test_metrics_snapshot(self):
        cache = SummaryStore()
        cache.store("a", 1, now=0.0)
        cache.lookup("a", now=0.0, max_age=10)
        metrics = cache.metrics()
        assert metrics["entries"] == 1
        assert metrics["hits"] == 1


# ----------------------------------------------------------------------
# Compile keying: one template per shape
# ----------------------------------------------------------------------
class TestCompileKeying:
    def test_jittered_spellings_compile_to_one_canonical_source(
            self, paper_schema):
        a = PREFIX + "//parkingSpace[available='yes'][price='0']"
        b = PREFIX + "//parkingSpace[price='0'][ available = 'yes' ]"
        pattern_a = compile_pattern(a, schema=paper_schema)
        pattern_b = compile_pattern(b, schema=paper_schema)
        assert pattern_a.source == pattern_b.source

    def test_raw_key_fast_path(self, paper_schema):
        query = PREFIX + "//parkingSpace[ price = '0' ]"
        first = compile_pattern(query, schema=paper_schema)
        stats_before = dict(pattern_key_stats())
        hits = paper_schema.compiled_patterns.stats["hits"]
        again = compile_pattern(query, schema=paper_schema)
        assert again is first
        # The repeat came from the exact-text entry: no template build.
        assert pattern_key_stats() == stats_before
        assert paper_schema.compiled_patterns.stats["hits"] == hits + 1

    def test_two_texts_of_one_shape_build_one_template(self, paper_schema):
        before = pattern_key_stats()["canonical_compiles"]
        first = compile_pattern(PREFIX + "/neighborhood[@id='Oakland']",
                                schema=paper_schema)
        second = compile_pattern(PREFIX + "/neighborhood[@id='Shadyside']",
                                 schema=paper_schema)
        assert pattern_key_stats()["canonical_compiles"] == before + 1
        assert first.items[-1].pinned_ids == {"Oakland"}
        assert second.items[-1].pinned_ids == {"Shadyside"}
        assert second.source == canonical_key(
            PREFIX + "/neighborhood[@id='Shadyside']")


# ----------------------------------------------------------------------
# Jittered bounds end to end
# ----------------------------------------------------------------------
class TestJitteredBoundsEndToEnd:
    def test_jittered_tolerances_share_cached_region(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        agent = cluster.agent("top")
        base = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        cluster.query(base + "[timestamp > now - 30]", at_site="top")
        sent = agent.stats["subqueries_sent"]
        settable_clock.advance(5)
        # 28s-bound spelling: different exact key, and the 5s-old cached
        # region satisfies the tighter bound.
        results, _, _ = cluster.query(base + "[timestamp > now - 28]",
                                      at_site="top")
        assert len(results) == 1
        assert agent.stats["subqueries_sent"] == sent

    def test_a_copy_aged_into_the_bucket_gap_costs_one_ask(
            self, paper_doc, paper_plan, settable_clock):
        """Data aged into the (28s, 30s] gap: the ask carries the
        caller's 28s bound verbatim, so its reply vouches for what it
        carries and nothing is asked twice."""
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        base = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        cluster.query(base, at_site="top")  # warm, stamped at t=1000
        settable_clock.advance(29)
        results, _, outcome = cluster.query(base + "[timestamp > now - 28]",
                                            at_site="top")
        assert len(results) == 1
        [ask] = outcome.subqueries_sent
        assert "- 28" in ask.query

    def test_a_location_path_lookup_never_canonicalizes(
            self, paper_doc, paper_plan, settable_clock, monkeypatch):
        import repro.core.gather as gather

        calls = []
        original = gather.canonicalize
        monkeypatch.setattr(gather, "canonicalize",
                            lambda query: calls.append(query)
                            or original(query))
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        base = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        results, _, outcome = cluster.query(base + "[timestamp > now - 28]",
                                            at_site="top")
        assert len(results) == 1 and outcome.subqueries_sent
        assert calls == []

    def test_scalar_jitter_hits_aggregate_cache(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        agent = cluster.agent("top")
        tight = f"count({PREFIX}//parkingSpace[available='yes'][price='0'])"
        jitter = (f"count( {PREFIX}//parkingSpace"
                  f"[ price = '0' ][ available = 'yes' ] )")
        first = agent.answer_scalar(tight, max_age=60)
        second = agent.answer_scalar(jitter, max_age=60)
        assert first == second == 1
        assert agent.subsystem("aggregation").summaries.stats["hits"] == 1


# ----------------------------------------------------------------------
# EXPLAIN integration
# ----------------------------------------------------------------------
class TestExplainCacheSection:
    def test_report_carries_the_canonical_key_and_bound(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        query = (PREFIX + "/neighborhood[@id='Shadyside']"
                 "/block[@id='1'][timestamp > now - 28]")
        report = cluster.explain(query)
        cache = report.to_dict()["cache"]
        assert "current-time() - 28" in cache["canonical_key"]
        assert cache == {"canonical_key": cache["canonical_key"],
                         "min_tolerance": 28.0}
        rendered = report.render()
        assert f"canonical: {cache['canonical_key']}  (bound 28s)" \
            in rendered
        assert "bucket" not in rendered

    def test_jittered_bound_reports_the_shared_entry(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        agent = cluster.agent("top")
        inner = (f"{PREFIX}//parkingSpace[available='yes']"
                 "[timestamp > now - 30]")
        jitter = (f"{PREFIX}//parkingSpace[available='yes']"
                  "[timestamp > now - 28]")
        agent.answer_scalar(f"count({inner})")
        report = agent.explain(f"count({jitter})")
        assert report.sections["aggregation"]["summary"] == {
            "age": 0.0, "hits": 0, "as_of": 1000.0}
        assert "summary-cache hit candidate (age 0s, as of 1000, hits 0)" \
            in report.render()

    def test_plan_shows_the_callers_own_bound(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        query = (PREFIX + "/neighborhood[@id='Shadyside']"
                 "/block[@id='1'][timestamp > now - 28]")
        report = cluster.agent("top").explain(query)
        [entry] = report.to_dict()["plan"]
        assert "- 28" in entry["query"]
        assert "wire_query" not in entry
        assert "~>" not in report.render()


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------
class TestRegistryCounters:
    def test_cluster_registry_reports_summaries_and_memos(
            self, paper_cluster):
        from repro.obs.registry import cluster_metrics

        paper_cluster.query(FIGURE2_QUERY, at_site="top")
        agent = paper_cluster.agent("top")
        agent.answer_scalar(
            f"count({PREFIX}//parkingSpace[available='yes'])", max_age=60)
        agent.answer_scalar(
            f"count( {PREFIX}//parkingSpace[ available = 'yes' ] )",
            max_age=60)
        snapshot = cluster_metrics(paper_cluster)
        assert "semcache" not in snapshot
        aggregation = snapshot["aggregation"]
        assert aggregation["summary"]["hits"] >= 1
        assert aggregation["summary"]["stores"] >= 1
        assert 0.0 <= aggregation["summary_hit_ratio"] <= 1.0
        for engine in (snapshot["engine"], agent.metrics()["engine"]):
            assert engine["canonicalizer"]["scope"] == "process"
            assert engine["compile_keys"]["scope"] == "process"
