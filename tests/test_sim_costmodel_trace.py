"""Unit tests for the cost model, tracing and the simulated cluster."""

import pytest

from repro.arch import hierarchical
from repro.net import QueryMessage
from repro.service import ParkingConfig, QueryWorkload, build_parking_document
from repro.sim import CostModel, SimulatedCluster, TracingNetwork


class TestCostModel:
    def test_fast_codegen_cheaper(self):
        model = CostModel()
        assert model.codegen(fast=True) < model.codegen(fast=False)

    def test_execution_grows_sublinearly(self):
        model = CostModel()
        base = model.execute(model.execute_reference_nodes)
        eight_x = model.execute(model.execute_reference_nodes * 8)
        assert base < eight_x < base * 1.25  # <25% growth for 8x data

    def test_breakdown_sums_to_service(self):
        model = CostModel()
        breakdown = model.breakdown(5000, fast=True, messages=4)
        assert sum(breakdown.values()) == pytest.approx(
            model.query_service(5000, fast=True, messages=4))

    def test_paper_magnitudes(self):
        """Naive creation dominates; fast creation saves > 50% total."""
        model = CostModel()
        naive_total = model.query_service(model.execute_reference_nodes,
                                          fast=False)
        fast_total = model.query_service(model.execute_reference_nodes,
                                         fast=True)
        assert model.codegen_naive > naive_total / 2
        assert fast_total < naive_total / 2

    def test_round_latency_unbounded_is_max(self):
        model = CostModel(fanout_width=0)
        assert model.round_latency([0.1, 0.4, 0.2]) == pytest.approx(0.4)
        assert model.round_latency([]) == 0.0

    def test_round_latency_bounded_runs_in_waves(self):
        model = CostModel(fanout_width=2)
        # Waves: [0.1, 0.4] -> 0.4, [0.2, 0.3] -> 0.3, [0.5] -> 0.5
        assert model.round_latency([0.1, 0.4, 0.2, 0.3, 0.5]) == \
            pytest.approx(0.4 + 0.3 + 0.5)

    def test_round_latency_width_one_is_sequential(self):
        model = CostModel(fanout_width=1)
        assert model.round_latency([0.1, 0.4, 0.2]) == pytest.approx(0.7)

    def test_update_rate_near_200_per_second(self):
        """Section 5.2: a single OA handles about 200 updates/s."""
        model = CostModel()
        assert 100 <= 1.0 / model.update_cost <= 400

    def test_calibrated_measures_engine(self):
        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        from repro.service import type1_query

        model = CostModel.calibrated(
            document=document,
            query=type1_query(config, "Pittsburgh", "Oakland", "1"),
            repetitions=2)
        assert model.codegen_fast < model.codegen_naive
        assert model.execute_base > 0

    def test_calibrated_execution_builds_the_reply(self, monkeypatch):
        """``execute_base`` times a serving site: the walk *and* the
        fragment it ships, which the walk alone no longer builds."""
        from repro.core.answer import AnswerBuilder

        builds = []
        original = AnswerBuilder.build

        def counting(builder):
            builds.append(builder)
            return original(builder)

        from repro.service import type1_query

        monkeypatch.setattr(AnswerBuilder, "build", counting)
        config = ParkingConfig.tiny()
        CostModel.calibrated(
            document=build_parking_document(config),
            query=type1_query(config, "Pittsburgh", "Oakland", "1"),
            repetitions=1)
        assert builds


class TestTracing:
    def test_trace_tree_mirrors_rpc_tree(self, paper_cluster):
        network = TracingNetwork()
        for site, agent in paper_cluster.agents.items():
            agent.network = network
            network.register(site, agent)
        paper_cluster.network = network

        agent = paper_cluster.agent("top")
        (_results, _outcome), trace = network.capture(
            "top", "query",
            lambda: agent.answer_user_query(
                "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
                "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
                "/block[@id='1']"),
        )
        assert trace.site == "top"
        assert [c.site for c in trace.children] == ["oak"]
        assert trace.total_calls() == 2
        assert trace.sites_touched() == {"top", "oak"}

    def test_messages_counted(self, paper_cluster):
        network = TracingNetwork()
        for site, agent in paper_cluster.agents.items():
            agent.network = network
            network.register(site, agent)
        reply = network.request("client", "top",
                                QueryMessage("/usRegion[@id='NE']",
                                             user=True))
        assert reply is not None


class TestSimulatedCluster:
    @pytest.fixture
    def sim(self):
        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        return config, SimulatedCluster(document, hierarchical(config),
                                        cost_model=CostModel())

    def test_run_produces_throughput(self, sim):
        config, sim_cluster = sim
        workload = QueryWorkload.qw(config, 1, seed=3)
        metrics = sim_cluster.run(workload, n_clients=4, duration=10,
                                  warmup=2)
        assert metrics.completed > 0
        assert metrics.throughput > 0
        assert metrics.mean_latency > 0

    def test_closed_loop_latency_tracks_load(self, sim):
        config, _ = sim
        document = build_parking_document(config)
        light = SimulatedCluster(document.copy(), hierarchical(config))
        heavy = SimulatedCluster(document.copy(), hierarchical(config))
        m_light = light.run(QueryWorkload.qw(config, 1, seed=3),
                            n_clients=1, duration=10, warmup=2)
        m_heavy = heavy.run(QueryWorkload.qw(config, 1, seed=3),
                            n_clients=16, duration=10, warmup=2)
        assert m_heavy.mean_latency > m_light.mean_latency

    def test_fast_codegen_is_a_simulator_argument(self, sim):
        # The knob only changes the accounted cost, so it lives on the
        # simulator, not on the live OAConfig.
        config, _ = sim
        document = build_parking_document(config)
        latency = {}
        for fast in (True, False):
            cluster = SimulatedCluster(document.copy(), hierarchical(config),
                                       fast_codegen=fast)
            metrics = cluster.run(QueryWorkload.qw(config, 1, seed=3),
                                  n_clients=1, duration=10, warmup=2)
            latency[fast] = metrics.mean_latency
        assert latency[True] < latency[False]

    def test_utilizations_reported(self, sim):
        config, sim_cluster = sim
        workload = QueryWorkload.qw(config, 1, seed=3)
        sim_cluster.run(workload, n_clients=4, duration=5, warmup=1)
        utils = sim_cluster.utilizations(6.0)
        assert set(utils) == set(sim_cluster.cluster.sites)
        assert any(u > 0 for u in utils.values())

    def test_metrics_by_type(self, sim):
        config, sim_cluster = sim
        workload = QueryWorkload.qw_mix(config, seed=5)
        metrics = sim_cluster.run(workload, n_clients=4, duration=10,
                                  warmup=2)
        assert set(metrics.completed_by_type) <= {1, 2, 3, 4}

    def test_throughput_trace_bins(self, sim):
        config, sim_cluster = sim
        workload = QueryWorkload.qw(config, 1, seed=3)
        metrics = sim_cluster.run(workload, n_clients=4, duration=10,
                                  warmup=0)
        trace = metrics.throughput_trace(bin_seconds=2.0)
        assert len(trace) >= 4
        assert sum(count for _t, count in trace) == metrics.completed
