"""Unit tests for the parking/coastal services and the architectures."""

import pytest

from repro.arch import (
    all_architectures,
    balanced_hot_neighborhood,
    centralized,
    centralized_query_distributed_update,
    distributed_two_level,
    hierarchical,
)
from repro.service import (
    CoastalConfig,
    ParkingConfig,
    QueryWorkload,
    UpdateWorkload,
    all_space_paths,
    build_coastal_document,
    build_parking_document,
    type1_query,
    type2_query,
    type3_query,
    type4_query,
)
from repro.xpath import parse
from repro.xpath.analysis import extract_id_path


class TestParkingGenerator:
    def test_paper_small_dimensions(self):
        config = ParkingConfig.paper_small()
        assert config.total_spaces == 2400
        document = build_parking_document(config)
        assert sum(1 for _ in document.iter("parkingSpace")) == 2400
        assert sum(1 for _ in document.iter("neighborhood")) == 6
        assert sum(1 for _ in document.iter("city")) == 2

    def test_paper_large_is_8x(self):
        small = ParkingConfig.paper_small()
        large = ParkingConfig.paper_large()
        assert large.total_spaces == small.total_spaces * 8

    def test_deterministic_given_seed(self):
        from repro.xmlkit import trees_equal

        config = ParkingConfig.tiny()
        assert trees_equal(build_parking_document(config),
                           build_parking_document(config))

    def test_spaces_have_fields(self):
        document = build_parking_document(ParkingConfig.tiny())
        space = next(document.iter("parkingSpace"))
        assert space.child("available").text in ("yes", "no")
        assert space.child("price") is not None
        assert space.child("meter-hours") is not None

    def test_neighborhood_aggregate_consistent(self):
        document = build_parking_document(ParkingConfig.tiny())
        for neighborhood in document.iter("neighborhood"):
            declared = int(neighborhood.child("available-spaces").text)
            actual = sum(
                1 for s in neighborhood.iter("parkingSpace")
                if s.child("available").text == "yes")
            assert declared == actual

    def test_all_space_paths_resolve(self):
        from repro.core import find_by_id_path

        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        paths = all_space_paths(config)
        assert len(paths) == config.total_spaces
        for path in paths[:10]:
            assert find_by_id_path(document, path) is not None


class TestQueryTypes:
    CONFIG = ParkingConfig.paper_small()

    def test_type1_lca_is_block(self):
        query = type1_query(self.CONFIG, "Pittsburgh", "Oakland", "5")
        path = extract_id_path(parse(query))
        assert path[-1] == ("block", "5")

    def test_type2_lca_is_neighborhood(self):
        query = type2_query(self.CONFIG, "Pittsburgh", "Oakland", "1", "2")
        path = extract_id_path(parse(query))
        assert path[-1] == ("neighborhood", "Oakland")

    def test_type3_lca_is_city(self):
        query = type3_query(self.CONFIG, "Pittsburgh", "Oakland",
                            "Shadyside", "1")
        path = extract_id_path(parse(query))
        assert path[-1] == ("city", "Pittsburgh")

    def test_type4_lca_is_county(self):
        query = type4_query(self.CONFIG, "Pittsburgh", "Philadelphia",
                            "Oakland", "1")
        path = extract_id_path(parse(query))
        assert path[-1] == ("county", "Allegheny")

    def test_selections(self):
        query = type1_query(self.CONFIG, "Pittsburgh", "Oakland", "1",
                            selection="available")
        assert query.endswith("/parkingSpace[available='yes']")
        with pytest.raises(ValueError):
            type1_query(self.CONFIG, "Pittsburgh", "Oakland", "1",
                        selection="bogus")


class TestWorkloads:
    CONFIG = ParkingConfig.paper_small()

    def test_mix_fractions(self):
        workload = QueryWorkload.qw_mix(self.CONFIG, seed=1)
        counts = {}
        for _q, qtype in workload.take(2000):
            counts[qtype] = counts.get(qtype, 0) + 1
        assert counts[1] / 2000 == pytest.approx(0.40, abs=0.05)
        assert counts[2] / 2000 == pytest.approx(0.40, abs=0.05)
        assert counts[3] / 2000 == pytest.approx(0.15, abs=0.04)
        assert counts[4] / 2000 == pytest.approx(0.05, abs=0.03)

    def test_qw_single_type(self):
        workload = QueryWorkload.qw(self.CONFIG, 3, seed=2)
        assert {t for _q, t in workload.take(50)} == {3}

    def test_skew_targets_hot_neighborhood(self):
        workload = QueryWorkload.qw(self.CONFIG, 1, skew=0.9,
                                    hot_city="Pittsburgh",
                                    hot_neighborhood="Oakland", seed=3)
        hot = sum(1 for q, _t in workload.take(500) if "'Oakland'" in q)
        assert hot / 500 > 0.85

    def test_seeded_workloads_reproducible(self):
        a = QueryWorkload.qw_mix(self.CONFIG, seed=7).take(50)
        b = QueryWorkload.qw_mix(self.CONFIG, seed=7).take(50)
        assert a == b

    def test_queries_parse_and_route(self):
        workload = QueryWorkload.qw_mix(self.CONFIG, seed=4)
        for query, _t in workload.take(40):
            assert extract_id_path(parse(query))

    def test_update_workload(self):
        updates = UpdateWorkload(self.CONFIG, seed=5)
        path, values = updates.sample()
        assert path[-1][0] == "parkingSpace"
        assert values["available"] in ("yes", "no")


class TestLiveWorkloadRun:
    def _cluster(self):
        from repro.arch import distributed_two_level
        from repro.net import Cluster

        config = ParkingConfig.tiny()
        arch = distributed_two_level(config)
        return config, Cluster(build_parking_document(config), arch.plan)

    def test_run_live_measures_and_snapshots(self):
        from repro.service import run_live

        config, cluster = self._cluster()
        workload = QueryWorkload.qw(config, 1, seed=11)
        metrics, report = run_live(cluster, workload, count=5, now=0.0)
        assert metrics.completed == 5
        assert metrics.completed_by_type == {1: 5}
        assert len(metrics.latencies) == 5
        assert report["workload"]["completed"] == 5
        assert cluster.stats["client_queries"] == 5
        assert set(report["sites"]) == set(cluster.agents)

    def test_run_live_collects_trace_ids_when_enabled(self):
        from repro.obs.tracing import TRACER, disable_tracing, \
            enable_tracing
        from repro.service import run_live

        config, cluster = self._cluster()
        workload = QueryWorkload.qw(config, 1, seed=12)
        TRACER.reset()
        enable_tracing()
        try:
            _metrics, report = run_live(cluster, workload, count=3,
                                        now=0.0)
            assert len(report["traces"]) == 3
            for trace_id in report["traces"]:
                names = {s.name for s in TRACER.spans(trace_id)}
                assert "workload-query" in names
                assert "gather" in names
        finally:
            disable_tracing()
            TRACER.reset()


class TestArchitectures:
    CONFIG = ParkingConfig.paper_small()

    def test_four_architectures(self):
        archs = all_architectures(self.CONFIG)
        assert [a.name for a in archs] == [
            "centralized", "centralized-query", "distributed-two-level",
            "hierarchical"]

    def test_centralized_single_site(self):
        arch = centralized(self.CONFIG)
        assert arch.plan.sites == ["site-0"]
        assert arch.forced_entry == "site-0"

    def test_arch2_blocks_distributed(self):
        arch = centralized_query_distributed_update(self.CONFIG)
        block_counts = {
            site: sum(1 for p in paths if p[-1][0] == "block")
            for site, paths in arch.plan.assignments.items()}
        workers = [c for s, c in block_counts.items() if s != "site-0"]
        assert sum(workers) == 120  # 6 neighborhoods x 20 blocks
        assert max(workers) - min(workers) <= 1  # round-robin balance

    def test_arch3_same_placement_dns_routing(self):
        arch2 = centralized_query_distributed_update(self.CONFIG)
        arch3 = distributed_two_level(self.CONFIG)
        assert arch3.plan.assignments == arch2.plan.assignments
        assert arch3.forced_entry is None
        assert arch2.forced_entry == "site-0"

    def test_hierarchical_placement(self):
        arch = hierarchical(self.CONFIG)
        kinds = {}
        for site, paths in arch.plan.assignments.items():
            for path in paths:
                kinds.setdefault(path[-1][0], []).append(site)
        assert len(kinds["neighborhood"]) == 6
        assert len(set(kinds["neighborhood"])) == 6  # all distinct sites
        assert len(kinds["city"]) == 2
        assert len(kinds["usRegion"]) == 1

    def test_hierarchical_needs_enough_sites(self):
        with pytest.raises(ValueError):
            hierarchical(self.CONFIG, n_sites=3)

    def test_balanced_spreads_hot_blocks(self):
        arch = balanced_hot_neighborhood(self.CONFIG, "Pittsburgh",
                                         "Oakland")
        hot_block_sites = {
            site
            for site, paths in arch.plan.assignments.items()
            for path in paths
            if len(path) == 6 and path[4] == ("neighborhood", "Oakland")
        }
        assert len(hot_block_sites) == 9

    def test_architectures_build_valid_clusters(self, request):
        from repro.net import Cluster

        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        for arch in all_architectures(config):
            cluster = Cluster(document.copy(), arch.plan)
            assert cluster.validate(document) == []


class TestCoastal:
    def test_document_shape(self):
        config = CoastalConfig(regions=2, stations_per_region=3)
        document = build_coastal_document(config)
        assert sum(1 for _ in document.iter("station")) == 6
        station = next(document.iter("station"))
        assert station.child("rip-current-risk").text in (
            "low", "medium", "high")

    def test_alert_level_aggregates_risk(self):
        document = build_coastal_document(CoastalConfig())
        for region in document.iter("region"):
            risks = {s.child("rip-current-risk").text
                     for s in region.iter("station")}
            alert = region.child("alert-level").text
            if "high" in risks:
                assert alert == "high"
