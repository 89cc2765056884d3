"""EXPLAIN: decisions, subquery plans, analyze mode."""

import json

from repro.obs.explain import CACHE_HIT, OWNED, STALE, SUBQUERY

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")
OAKLAND_SPACES = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
                  "/parkingSpace[available='yes']")
#: A select-all fetch: its generalized answer materializes the whole
#: result set, so a repeat is answerable from cache.
OAKLAND_ALL = (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
               "/parkingSpace")


def _decision_labels(report):
    return {entry["decision"] for entry in report.decisions}


class TestPlans:
    def test_owned_region_is_answerable_locally(self, paper_cluster):
        report = paper_cluster.agents["oak"].explain(OAKLAND_SPACES)
        assert report.complete_locally
        assert report.plan == []
        assert OWNED in _decision_labels(report)
        assert report.site == "oak"

    def test_remote_region_plans_a_subquery(self, paper_cluster):
        report = paper_cluster.agents["top"].explain(OAKLAND_SPACES)
        assert not report.complete_locally
        assert SUBQUERY in _decision_labels(report)
        (entry,) = report.plan
        assert entry["target"] == "oak"
        assert entry["query"]
        assert report.planned_queries() == [entry["query"]]

    def test_cache_hit_after_gather(self, paper_cluster):
        top = paper_cluster.agents["top"]
        # First query gathers and caches Oakland's spaces at `top`.
        paper_cluster.query(OAKLAND_ALL, at_site="top")
        report = top.explain(OAKLAND_ALL)
        assert report.complete_locally
        assert CACHE_HIT in _decision_labels(report)

    def test_stale_cache_plans_a_refresh(self, paper_cluster):
        top = paper_cluster.agents["top"]
        paper_cluster.query(OAKLAND_ALL, now=0.0, at_site="top")
        fresh = OAKLAND_ALL + "[timestamp > now - 30]"
        # Within the bound the cache serves; beyond it the plan asks.
        assert top.explain(fresh, now=10.0).complete_locally
        report = top.explain(fresh, now=100.0)
        assert not report.complete_locally
        assert STALE in _decision_labels(report)
        assert "stale-cache" in {entry["reason"]
                                 for entry in report.plan}

    def test_stale_children_are_refreshed_by_one_ask_for_their_parent(
            self, paper_cluster):
        top = paper_cluster.agents["top"]
        paper_cluster.query(OAKLAND_ALL, now=0.0, at_site="top")
        report = top.explain(OAKLAND_ALL + "[timestamp > now - 30]",
                             now=100.0)
        spaces = [entry for entry in report.decisions
                  if entry["id_path"][-1][0] == "parkingSpace"]
        assert [entry["decision"] for entry in spaces] == [STALE, STALE]
        (entry,) = report.plan
        assert entry["reason"] == "stale-cache"
        assert entry["anchor_path"][-1] == ["block", "1"]
        assert entry["target"] == "oak"
        assert (f"@oak         {entry['query']}  [stale-cache]"
                in report.render())

    def test_explain_is_read_only(self, paper_cluster):
        top = paper_cluster.agents["top"]
        before = dict(top.driver.stats)
        report = top.explain(OAKLAND_SPACES)
        assert report.plan  # it would have dispatched
        assert top.driver.stats == before
        assert top.stats["subqueries_sent"] == 0


class TestAnalyze:
    def test_analyze_names_every_dispatched_subquery(self, paper_cluster):
        top = paper_cluster.agents["top"]
        report = top.explain(OAKLAND_SPACES, analyze=True)
        analysis = report.analyze
        assert analysis["complete"]
        assert analysis["rounds"] >= 1
        # The plan's first round is exactly what the gather dispatched.
        assert report.planned_queries() == report.dispatched_queries()
        assert top.driver.stats["queries"] == 1
        assert all(not entry["failed"]
                   for entry in analysis["dispatched"])

    def test_default_mode_has_no_analysis(self, paper_cluster):
        report = paper_cluster.agents["top"].explain(OAKLAND_SPACES)
        assert report.analyze is None
        assert report.dispatched_queries() == []


class TestClusterExplain:
    def test_routes_to_lca_site(self, paper_cluster):
        report = paper_cluster.explain(OAKLAND_SPACES)
        assert report.routed_site == "oak"
        assert report.site == "oak"
        assert report.complete_locally

    def test_lca_path_recorded(self, paper_cluster):
        report = paper_cluster.explain(OAKLAND_SPACES)
        assert report.lca_path[0] == ("usRegion", "NE")
        assert report.lca_path[-1] == ("parkingSpace", None) or \
            len(report.lca_path) >= 4


class TestRenderings:
    def test_text_rendering_names_the_parts(self, paper_cluster):
        report = paper_cluster.agents["top"].explain(OAKLAND_SPACES)
        text = report.render()
        assert text.startswith("EXPLAIN ")
        assert "subquery plan:" in text
        assert "@oak" in text

    def test_json_roundtrip(self, paper_cluster):
        report = paper_cluster.agents["top"].explain(OAKLAND_SPACES,
                                                     analyze=True)
        data = json.loads(report.to_json())
        assert data["query"]
        assert data["site"] == "top"
        assert data["plan"]
        assert data["analyze"]["dispatched"]

    def test_scalar_query_explains(self, paper_cluster):
        report = paper_cluster.agents["top"].explain(
            f"count({OAKLAND_SPACES})")
        assert isinstance(report.to_dict(), dict)
        assert report.lca_path  # extracted through the wrapper
