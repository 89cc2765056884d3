"""Unit/integration tests for OAs, SAs and the assembled cluster."""

import pytest

from repro.core import Status, get_status, get_timestamp
from repro.net import Cluster, MigrationError, OAConfig
from repro.xpath import parser as xpath_parser

from tests.conftest import (
    FIGURE2_QUERY,
    OAKLAND,
    PITTSBURGH,
    SHADYSIDE,
)

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


class TestRouting:
    def test_self_starting_query_routes_to_lca(self, paper_cluster):
        site, path = paper_cluster.route_query(FIGURE2_QUERY)
        assert path == PITTSBURGH
        assert site == "top"  # top owns everything above neighborhoods

    def test_block_level_query_routes_to_neighborhood_owner(
            self, paper_cluster):
        query = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
        site, _path = paper_cluster.route_query(query)
        assert site == "oak"

    def test_scalar_query_routes_via_inner_path(self, paper_cluster):
        site, _ = paper_cluster.route_query(
            f"count({PREFIX}/neighborhood[@id='Shadyside']/block)")
        assert site == "shady"

    def test_unprefixed_query_falls_back_to_root_owner(self, paper_cluster):
        site, _ = paper_cluster.route_query("//parkingSpace")
        assert site == "top"

    def test_repeated_routing_hits_client_dns_cache(self, paper_cluster):
        paper_cluster.route_query(FIGURE2_QUERY)
        before = paper_cluster.stats["lca_cache_hits"]
        paper_cluster.route_query(FIGURE2_QUERY)
        assert paper_cluster.stats["lca_cache_hits"] == before + 1


class TestOneParsePerQueryShape:
    """Routing, load accounting, dispatch and the walk at the asking
    site, and at every site a subquery reaches, read a path query's
    structure from one compile memo, which parses each query *shape*
    (the text with its string literals lifted into slots) once."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The texts the real parser ran on, in order."""
        texts = []
        self.real_parse = xpath_parser.parse
        monkeypatch.setattr(
            xpath_parser, "parse",
            lambda source: texts.append(source) or self.real_parse(source))
        xpath_parser.parse_cached.cache_clear()
        return texts

    def test_a_fresh_query_is_parsed_once_per_shape(
            self, paper_cluster, parsed):
        query = FIGURE2_QUERY + "[price >= 0]"
        results, site, outcome = paper_cluster.query(query)
        assert len(results) == 3 and outcome.complete
        assert site == "top"
        # Oakland and Shadyside were asked: the subqueries' shape was
        # parsed too, once, by whichever site met it first.
        assert len(parsed) > 1
        assert len(parsed) == len(set(parsed))
        assert "Oakland" not in "".join(parsed)

    def test_a_query_differing_only_in_ids_parses_nothing(
            self, paper_cluster, parsed):
        paper_cluster.query(FIGURE2_QUERY)
        assert parsed
        before = len(parsed)
        results, site, outcome = paper_cluster.query(
            FIGURE2_QUERY.replace("block[@id='1']", "block[@id='2']"))
        assert outcome.complete and site == "top"
        assert len(parsed) == before

    def test_consumers_leave_the_shared_trees_as_parsed(
            self, paper_cluster, parsed):
        queries = [
            FIGURE2_QUERY,
            PREFIX + "/neighborhood[@id='Oakland']/block"
                     "[timestamp > now - 30][@id='1']",
            PREFIX + "//parkingSpace['yes' = available]",
        ]
        for query in queries:
            paper_cluster.query(query)
            paper_cluster.route_query(query)
        paper_cluster.scalar(f"count({PREFIX}//parkingSpace)")
        assert parsed
        for text in list(parsed):
            assert xpath_parser.parse_cached(text).unparse() == \
                self.real_parse(text).unparse()


class TestQueries:
    def test_figure2_end_to_end(self, paper_cluster):
        results, site, outcome = paper_cluster.query(FIGURE2_QUERY)
        assert len(results) == 3
        assert site == "top"

    def test_query_via_message_layer(self, paper_cluster):
        results, site = paper_cluster.query_via_messages(FIGURE2_QUERY)
        assert len(results) == 3
        assert all(r.get("status") is None for r in results)

    def test_forced_entry_site(self, paper_cluster):
        results, site, _ = paper_cluster.query(FIGURE2_QUERY,
                                               at_site="etna")
        assert site == "etna"
        assert len(results) == 3

    def test_scalar_aggregate(self, paper_cluster):
        total = paper_cluster.scalar(
            f"count({PREFIX}//parkingSpace[available='yes'])")
        assert total == 4.0  # Oakland 1+1, Shadyside 2

    def test_caching_across_cluster_queries(self, paper_cluster):
        query = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        paper_cluster.query(query, at_site="top")
        agent = paper_cluster.agent("top")
        before = agent.stats["subqueries_sent"]
        paper_cluster.query(query, at_site="top")
        assert agent.stats["subqueries_sent"] == before

    def test_cache_disabled_config(self, paper_doc, paper_plan):
        cluster = Cluster(paper_doc, paper_plan,
                          oa_config=OAConfig(cache_results=False))
        query = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        cluster.query(query, at_site="top")
        agent = cluster.agent("top")
        before = agent.stats["subqueries_sent"]
        cluster.query(query, at_site="top")
        assert agent.stats["subqueries_sent"] > before

    def test_validate_clean_at_bootstrap(self, paper_cluster):
        assert paper_cluster.validate() == []

    def test_validate_clean_after_query_mix(self, paper_cluster):
        paper_cluster.query(FIGURE2_QUERY)
        paper_cluster.query(PREFIX + "/neighborhood[@id='Oakland']",
                            at_site="etna")
        assert paper_cluster.validate() == []


class TestUpdates:
    def test_sa_update_reaches_owner(self, paper_cluster, paper_doc):
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = paper_cluster.add_sensing_agent("sa-1", [space])
        sa.send_update(space, values={"available": "yes"})
        element = paper_cluster.database("oak").find(space)
        assert element.child("available").text == "yes"
        assert get_timestamp(element) is not None

    def test_update_visible_to_subsequent_queries(self, paper_cluster):
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = paper_cluster.add_sensing_agent("sa-1", [space])
        sa.send_update(space, values={"available": "yes"})
        results, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
            "/parkingSpace[available='yes']")
        assert {r.id for r in results} == {"1", "2"}

    def test_update_to_wrong_site_forwarded(self, paper_cluster):
        space = SHADYSIDE + (("block", "1"), ("parkingSpace", "1"))
        message = UpdateMessage = None  # noqa: F841 (clarity below)
        from repro.net import UpdateMessage

        reply = paper_cluster.network.request(
            "sa-x", "oak",
            UpdateMessage(space, values={"available": "no"}, sender="sa-x"))
        assert reply.ok
        element = paper_cluster.database("shady").find(space)
        assert element.child("available").text == "no"
        assert paper_cluster.agent("oak").stats["updates_forwarded"] == 1

    def test_random_model_tick(self, paper_cluster):
        from repro.service import all_space_paths  # noqa: F401

        spaces = [OAKLAND + (("block", "1"), ("parkingSpace", "1")),
                  OAKLAND + (("block", "1"), ("parkingSpace", "2"))]
        sa = paper_cluster.add_sensing_agent("sa-9", spaces)
        sa.tick()
        assert sa.stats["updates_sent"] == 2


class TestMigration:
    def test_delegate_moves_ownership(self, paper_cluster):
        block = OAKLAND + (("block", "1"),)
        moved = paper_cluster.delegate(block, "etna")
        assert tuple(block) in [tuple(p) for p in moved]
        # New owner owns it; old owner keeps a complete copy.
        assert get_status(
            paper_cluster.database("etna").find(block)) is Status.OWNED
        assert get_status(
            paper_cluster.database("oak").find(block)) is Status.COMPLETE
        # The owned region moved with it (the spaces below).
        space = block + (("parkingSpace", "1"),)
        assert get_status(
            paper_cluster.database("etna").find(space)) is Status.OWNED

    def test_dns_points_to_new_owner(self, paper_cluster):
        block = OAKLAND + (("block", "1"),)
        paper_cluster.delegate(block, "etna")
        record = paper_cluster.dns.lookup(paper_cluster.dns.name_for(block))
        assert record.site == "etna"

    def test_queries_correct_after_migration(self, paper_cluster):
        block = OAKLAND + (("block", "1"),)
        before, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
            "/parkingSpace[available='yes']")
        paper_cluster.delegate(block, "etna")
        after, _, _ = paper_cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
            "/parkingSpace[available='yes']")
        assert {r.id for r in before} == {r.id for r in after}

    def test_updates_reach_new_owner_after_migration(self, paper_cluster):
        block = OAKLAND + (("block", "1"),)
        space = block + (("parkingSpace", "1"),)
        paper_cluster.delegate(block, "etna")
        sa = paper_cluster.add_sensing_agent("sa-2", [space])
        sa.send_update(space, values={"available": "no"})
        element = paper_cluster.database("etna").find(space)
        assert element.child("available").text == "no"

    def test_stale_dns_straggler_update_forwarded(self, paper_cluster):
        """An SA with a cached (stale) DNS entry sends to the old owner,
        which forwards using fresh DNS (the paper's step-4 story)."""
        block = OAKLAND + (("block", "1"),)
        space = block + (("parkingSpace", "1"),)
        sa = paper_cluster.add_sensing_agent("sa-3", [space])
        sa.send_update(space, values={"available": "yes"})  # caches DNS
        paper_cluster.delegate(block, "etna")
        sa.send_update(space, values={"available": "no"})  # stale route
        element = paper_cluster.database("etna").find(space)
        assert element.child("available").text == "no"
        assert paper_cluster.agent("oak").stats["updates_forwarded"] >= 1

    def test_cannot_delegate_unowned(self, paper_cluster):
        with pytest.raises(MigrationError):
            paper_cluster.agent("oak").delegate(
                SHADYSIDE, "etna", paper_cluster.dns)

    def test_migration_preserves_invariants(self, paper_cluster):
        paper_cluster.delegate(OAKLAND + (("block", "1"),), "etna")
        assert paper_cluster.validate() == []


class TestConsistencyEndToEnd:
    def test_tolerant_query_uses_cache_strict_refetches(
            self, paper_doc, paper_plan, settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        query = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
        cluster.query(query, at_site="top")  # warm the cache
        agent = cluster.agent("top")

        settable_clock.advance(100)
        tolerant = (PREFIX + "/neighborhood[@id='Shadyside']"
                    "/block[@id='1'][timestamp() > current-time() - 600]")
        before = agent.stats["subqueries_sent"]
        cluster.query(tolerant, at_site="top")
        assert agent.stats["subqueries_sent"] == before  # cache was fresh

        strict = (PREFIX + "/neighborhood[@id='Shadyside']"
                  "/block[@id='1'][timestamp() > current-time() - 10]")
        cluster.query(strict, at_site="top")
        assert agent.stats["subqueries_sent"] > before  # went to the owner

    def test_owner_answers_even_if_stale(self, paper_doc, paper_plan,
                                         settable_clock):
        """Consistency never blanks an answer: the owner's copy wins."""
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        settable_clock.advance(1000)
        strict = (PREFIX + "/neighborhood[@id='Shadyside']"
                  "/block[@id='1'][timestamp() > current-time() - 1]")
        results, _, _ = cluster.query(strict, at_site="top")
        assert len(results) == 1

    def test_paper_sugar_accepted_end_to_end(self, paper_doc, paper_plan,
                                             settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        query = (PREFIX + "/neighborhood[@id='Shadyside']"
                 "/block[@id='1'][timestamp > now - 600]")
        results, _, _ = cluster.query(query, at_site="top")
        assert len(results) == 1
