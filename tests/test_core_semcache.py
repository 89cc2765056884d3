"""The semantic query cache: canonical keys, answer keys, the LRU, prewarm.

Covers the pieces in ``repro.core.semcache`` in isolation (the
canonicalizer and its answer keys, the measured LRU, the query log)
and their integration points: the QEG compile cache keyed by canonical
form, jittered bounds end to end (a subquery carries the caller's own
bound), prewarming a cold cluster, and the EXPLAIN cache section.
"""

import pytest

from repro.core.qeg import compile_pattern, pattern_key_stats
from repro.core.semcache import (
    QueryLog,
    SemanticCache,
    canonical_key,
    canonicalize,
    estimate_bytes,
    prewarm,
    unique_entries,
)
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

    def test_distinct_queries_keep_distinct_keys(self):
        a = PREFIX + "//parkingSpace[available='yes']"
        b = PREFIX + "//parkingSpace[available='no']"
        assert canonical_key(a) != canonical_key(b)

    def test_ast_input_accepted(self):
        from repro.xpath import parser

        ast = parser.parse(FIGURE2_QUERY)
        assert canonicalize(ast).key == canonical_key(FIGURE2_QUERY)

    def test_jittered_tolerances_share_answer_key(self):
        tight = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp > now - 28]")
        loose = (PREFIX + "/neighborhood[@id='Oakland']"
                 "[timestamp > now - 30]")
        tight_canon = canonicalize(tight)
        loose_canon = canonicalize(loose)
        assert tight_canon.key != loose_canon.key
        assert tight_canon.answer_key == loose_canon.answer_key
        assert "timestamp" not in tight_canon.answer_key
        assert tight_canon.min_tolerance == 28
        assert loose_canon.min_tolerance == 30

    def test_unbounded_query_answer_key_is_its_key(self):
        canon = canonicalize(FIGURE2_QUERY)
        assert canon.key == canon.answer_key
        assert canon.min_tolerance is None

    def test_other_consistency_conjuncts_stay_in_the_answer_key(self):
        canon = canonicalize(PREFIX + "/neighborhood[@id='Oakland']"
                             "[timestamp() > 500 and"
                             " timestamp() > current-time() - 30]")
        assert "timestamp() > 500" in canon.answer_key
        assert "current-time()" not in canon.answer_key
        assert canon.min_tolerance == 30


# ----------------------------------------------------------------------
# The measured cache
# ----------------------------------------------------------------------
class TestSemanticCache:
    def test_store_then_hit(self):
        cache = SemanticCache()
        cache.store("k", 42, now=100.0)
        entry = cache.lookup("k", now=110.0, max_age=30)
        assert entry.value == 42
        assert cache.stats["hits"] == 1
        assert entry.hits == 1

    def test_no_bound_and_no_max_age_take_any_age(self):
        cache = SemanticCache()
        cache.store("k", 42, now=100.0, as_of=float("-inf"))
        assert cache.lookup("k", now=10_000.0).value == 42
        assert cache.stats["hits"] == 1

    def test_a_bound_is_never_served_data_of_unknown_age(self):
        cache = SemanticCache()
        cache.store("k", 42, now=100.0, as_of=float("-inf"))
        assert cache.lookup("k", now=100.0, bound=900.0) is None
        assert cache.lookup("k", now=100.0, max_age=900.0).value == 42

    def test_a_zero_bound_is_never_served(self):
        # The ``timestamp() > current-time() - 0`` rule: data stamped
        # now is not newer than now.
        cache = SemanticCache()
        cache.store("k", 42, now=100.0, as_of=100.0)
        assert cache.lookup("k", now=100.0, bound=0.0) is None
        assert cache.lookup("k", now=100.0, bound=1.0).value == 42

    def test_stale_entry_rejected(self):
        cache = SemanticCache()
        cache.store("k", 42, now=100.0)
        assert cache.lookup("k", now=200.0, max_age=30) is None
        assert cache.stats["stale_rejects"] == 1

    def test_budget_is_taken_directly(self):
        cache = SemanticCache()
        assert (cache.max_entries, cache.max_bytes) == (512, 8 * 1024 * 1024)
        assert SemanticCache(max_entries=3, max_bytes=64).max_bytes == 64

    def test_lru_eviction_by_entry_budget(self):
        cache = SemanticCache(max_entries=2)
        cache.store("a", 1, now=0.0)
        cache.store("b", 2, now=0.0)
        cache.lookup("a", now=0.0, max_age=10)  # touch a; b is now LRU
        cache.store("c", 3, now=0.0)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats["evictions"] == 1

    def test_eviction_by_byte_budget(self):
        cache = SemanticCache(max_bytes=100)
        cache.store("a", 1, now=0.0, nbytes=60)
        cache.store("b", 2, now=0.0, nbytes=60)
        assert "a" not in cache and "b" in cache
        assert cache.nbytes <= 100
        assert cache.stats["evicted_bytes"] == 60

    def test_restore_replaces_bytes_not_duplicates(self):
        cache = SemanticCache()
        cache.store("k", 1, now=0.0, nbytes=50)
        cache.store("k", 2, now=1.0, nbytes=70)
        assert len(cache) == 1
        assert cache.nbytes == 70

    def test_peek_does_not_touch_counters_or_order(self):
        cache = SemanticCache(max_entries=2)
        cache.store("a", 1, now=0.0)
        cache.store("b", 2, now=0.0)
        assert cache.peek("a").value == 1
        assert cache.stats["hits"] == 0
        cache.store("c", 3, now=0.0)  # peek did not promote a
        assert "a" not in cache

    def test_invalidate(self):
        cache = SemanticCache()
        cache.store("a", 1, now=0.0)
        cache.store("b", 2, now=0.0)
        cache.invalidate("a")
        assert "a" not in cache and "b" in cache
        cache.invalidate()
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_metrics_snapshot(self):
        cache = SemanticCache()
        cache.store("a", 1, now=0.0)
        cache.lookup("a", now=0.0, max_age=10)
        metrics = cache.metrics()
        assert metrics["entries"] == 1
        assert metrics["hits"] == 1
        assert metrics["bytes"] == cache.nbytes

    def test_estimate_bytes_shapes(self):
        assert estimate_bytes("abcd") == 4
        assert estimate_bytes(17) == 8
        assert estimate_bytes([1, 2]) == 24
        assert estimate_bytes(None) == 1


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
# Query log and prewarming
# ----------------------------------------------------------------------
class TestQueryLog:
    def test_record_and_iterate(self):
        log = QueryLog()
        log.record(FIGURE2_QUERY, query_type=1, site="top")
        log.record("count(/a/b)")
        assert len(log) == 2
        entries = list(log)
        assert entries[0] == {"query": FIGURE2_QUERY, "type": 1,
                              "site": "top"}
        assert entries[1] == {"query": "count(/a/b)"}

    def test_bounded(self):
        log = QueryLog(max_records=3)
        for i in range(10):
            log.record(f"/q{i}")
        assert len(log) == 3
        assert [e["query"] for e in log] == ["/q7", "/q8", "/q9"]

    def test_save_load_roundtrip(self, tmp_path):
        log = QueryLog()
        log.record(FIGURE2_QUERY, query_type=2)
        log.record("count(/a)", site="oak")
        path = tmp_path / "queries.jsonl"
        assert log.save(path) == 2
        loaded = QueryLog.load(path)
        assert list(loaded) == list(log)

    def test_unique_queries_dedupe_by_canonical_key(self):
        log = QueryLog()
        log.record(PREFIX + "//parkingSpace[available='yes'][price='0']")
        log.record(PREFIX + "//parkingSpace[price='0'][available='yes']")
        log.record(PREFIX + "//parkingSpace[ available = 'yes' ]")
        unique = log.unique_queries()
        assert len(unique) == 2
        # first spelling wins
        assert unique[0]["query"].endswith("[available='yes'][price='0']")

    def test_plain_entries_dedupe_like_the_log(self):
        # prewarm() dedupes a plain iterable with the log's own helper;
        # a query that does not parse keys as itself.
        queries = [PREFIX + "//parkingSpace[available='yes'][price='0']",
                   "this is not xpath",
                   PREFIX + "//parkingSpace[price='0'][available='yes']",
                   "this is not xpath"]
        log = QueryLog()
        for query in queries:
            log.record(query)
        entries = [{"query": query} for query in queries]
        assert unique_entries(entries) == log.unique_queries()
        assert [entry["query"] for entry in unique_entries(entries)] == (
            queries[:2])


class TestPrewarm:
    def test_prewarm_fills_caches_from_log(self, paper_cluster):
        warmable = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        log = QueryLog()
        log.record(warmable)
        log.record(f"count({PREFIX}//parkingSpace[available='yes'])")
        report = prewarm(paper_cluster, log)
        # Each query warmed its own LCA site, as live routing would.
        assert report == {
            "replayed": 2, "failures": 0, "unique": 2,
            "by_site": {"shady": 1, "top": 1},
        }
        agent = paper_cluster.agent("shady")
        assert agent.driver.stats["prewarm_queries"] == 1
        assert paper_cluster.agent("top").driver.stats[
            "prewarm_queries"] == 1
        # The count was rolled up: its summary is warm at its LCA.
        assert len(paper_cluster.agent("top").aggregation.summaries) == 1
        # The warmed site serves the logged query from cache: re-asking
        # (routed to the same LCA) sends nothing new over the wire.
        sent = agent.stats["subqueries_sent"]
        paper_cluster.query(warmable)
        assert agent.stats["subqueries_sent"] == sent

    def test_prewarm_deduplicates_jittered_spellings(self, paper_cluster):
        queries = [
            FIGURE2_QUERY,
            FIGURE2_QUERY.replace("available='yes'",
                                  " available = 'yes' "),
        ]
        report = prewarm(paper_cluster, queries)
        assert report["unique"] == 1
        assert report["replayed"] == 1

    def test_prewarm_limit_and_bad_queries(self, paper_cluster):
        report = prewarm(paper_cluster, ["this is not xpath",
                                         FIGURE2_QUERY], deduplicate=False)
        assert report["failures"] == 1
        assert report["replayed"] == 1
        limited = prewarm(paper_cluster, [FIGURE2_QUERY, "count(/a/b)"],
                          limit=1)
        assert limited["unique"] == 1

    def test_cluster_prewarm_delegates(self, paper_cluster):
        report = paper_cluster.prewarm([FIGURE2_QUERY])
        assert report["replayed"] == 1


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
    def test_report_carries_canonical_and_answer_keys(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        query = (PREFIX + "/neighborhood[@id='Shadyside']"
                 "/block[@id='1'][timestamp > now - 28]")
        report = cluster.explain(query)
        cache = report.to_dict()["cache"]
        assert "current-time() - 28" in cache["canonical_key"]
        assert "current-time()" not in cache["answer_key"]
        assert cache["min_tolerance"] == 28.0
        rendered = report.render()
        assert "semantic cache:" in rendered
        assert "(bound 28s)" in rendered
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
    def test_cluster_registry_aggregates_semcache(self, paper_cluster):
        from repro.obs.registry import cluster_metrics

        paper_cluster.query(FIGURE2_QUERY, at_site="top")
        agent = paper_cluster.agent("top")
        agent.answer_scalar(
            f"count({PREFIX}//parkingSpace[available='yes'])", max_age=60)
        agent.answer_scalar(
            f"count( {PREFIX}//parkingSpace[ available = 'yes' ] )",
            max_age=60)
        snapshot = cluster_metrics(paper_cluster)["semcache"]
        assert snapshot["hits"] >= 1
        assert snapshot["stores"] >= 1
        assert 0.0 <= snapshot["hit_ratio"] <= 1.0
        assert snapshot["canonicalizer"]["scope"] == "process"
