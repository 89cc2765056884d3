"""The simulated cluster: real engine execution + queueing simulation.

Every query is executed *for real* by the cluster engine (so answers,
caching and subquery fan-out are genuine) while its RPC tree is
captured and replayed through per-site FIFO servers with cost-model
service times.  Closed-loop client processes and an open-loop sensor
update stream then reproduce the paper's throughput and latency
experiments on a laptop.
"""

import copy

from repro.net.cluster import Cluster
from repro.net.dns import DnsResolver
from repro.net.oa import OAConfig
from repro.net.sa import SensingAgent
from repro.obs.registry import engine_counters
from repro.sim.costmodel import CostModel
from repro.sim.engine import Environment
from repro.sim.metrics import WorkloadMetrics
from repro.sim.trace import TracingNetwork

_DB_SIZE_REFRESH = 200


class SimulatedCluster:
    """A cluster wrapped in a discrete-event queueing model.

    *fast_codegen* selects which accounted processing cost a query is
    charged: the pre-compiled QEG/XSLT skeleton (Section 4, "Speeding
    up XSLT processing") or per-query compilation.  Results are the
    same either way -- only the simulated service time differs.
    """

    def __init__(self, document, architecture, cost_model=None,
                 oa_config=None, service="parking", count_bytes=False,
                 fast_codegen=True):
        self.env = Environment()
        self.fast_codegen = fast_codegen
        self.cost = cost_model or CostModel()
        self.architecture = architecture
        # The tracing network builds one RPC tree per capture on a
        # plain stack: real threads would interleave it.  Parallelism
        # is modelled in *virtual* time instead (fan-out waves below),
        # so the live engine must dispatch strictly sequentially -- on
        # a copy, so that the caller's config is never mutated.
        self.oa_config = copy.copy(oa_config or OAConfig())
        self.oa_config.executor = "serial"
        self.cluster = Cluster(
            document, architecture.plan, service=service,
            oa_config=self.oa_config, clock=lambda: self.env.now,
        )
        # Swap the loopback network for the tracing variant.
        self.network = TracingNetwork(count_bytes=count_bytes)
        for site, agent in self.cluster.agents.items():
            agent.network = self.network
            self.network.register(site, agent)
        self.cluster.network = self.network

        self.servers = {
            site: self.env.resource(capacity=1, name=site)
            for site in self.cluster.sites
        }
        self._db_size_cache = {}
        self._db_size_age = {}

    # ------------------------------------------------------------------
    def _db_size(self, site):
        age = self._db_size_age.get(site, 0)
        if site not in self._db_size_cache or age >= _DB_SIZE_REFRESH:
            self._db_size_cache[site] = \
                self.cluster.agents[site].database.size()
            self._db_size_age[site] = 0
        self._db_size_age[site] = self._db_size_age.get(site, 0) + 1
        return self._db_size_cache[site]

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def _service_time(self, node):
        if node.kind == "update":
            return self.cost.update_cost
        if node.kind == "replicate":
            # A delegation's push: replication never runs here.
            return self.cost.migration_cost
        return self.cost.query_service(
            self._db_size(node.site),
            fast=self.fast_codegen,
            messages=node.messages,
            forwarded=bool(node.children),
        )

    def _replay(self, node):
        if node.site in self.servers:
            server = self.servers[node.site]
            grant = server.request()
            yield grant
            yield self.env.timeout(self._service_time(node))
            server.release()
        if node.children:
            # One gather round fans out in parallel: replay the child
            # RPCs as concurrent waves of ``cost.fanout_width`` each
            # (0 = unbounded, the whole round in one wave).
            width = self.cost.fanout_width or len(node.children)
            for start in range(0, len(node.children), width):
                wave = [
                    self.env.process(self._replay_remote(child))
                    for child in node.children[start:start + width]
                ]
                yield self.env.all_of(wave)

    def _replay_remote(self, node):
        yield self.env.timeout(self.cost.network_latency)
        yield from self._replay(node)
        yield self.env.timeout(self.cost.network_latency)

    # ------------------------------------------------------------------
    # Real execution with capture
    # ------------------------------------------------------------------
    def execute_query(self, query, entry_site):
        agent = self.cluster.agents[entry_site]
        (results, _outcome), trace = self.network.capture(
            entry_site, "query", lambda: agent.answer_user_query(query)
        )
        return results, trace

    def execute_update(self, sensing_agent, path, values):
        _, trace = self.network.capture(
            "sa", "sa-tick",
            lambda: sensing_agent.send_update(path, values=values),
        )
        return trace

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _client_process(self, workload, metrics, stop_at, warmup,
                        pre_query=None):
        while self.env.now < stop_at:
            query, query_type = workload.sample()
            if pre_query is not None:
                pre_query(query, query_type)
            started = self.env.now
            entry = self.architecture.entry_site(self.cluster, query)
            if self.architecture.uses_dns_routing:
                yield self.env.timeout(self.cost.dns_hop_latency)
            _results, trace = self.execute_query(query, entry)
            yield self.env.timeout(self.cost.network_latency)
            yield from self._replay(trace)
            yield self.env.timeout(self.cost.network_latency)
            if self.env.now >= warmup:
                metrics.record(self.env.now, self.env.now - started,
                               query_type)

    def _update_process(self, update_workload, rate, stop_at):
        resolver = DnsResolver(self.cluster.dns, clock=lambda: self.env.now)
        sensing_agent = SensingAgent("sim-sa", [], self.network, resolver,
                                     clock=lambda: self.env.now)
        interval = 1.0 / rate
        while self.env.now < stop_at:
            path, values = update_workload.sample()
            trace = self.execute_update(sensing_agent, path, values)
            for child in trace.children:
                self.env.process(self._replay(child))
            yield self.env.timeout(interval)

    def _window_process(self, metrics, warmup):
        yield self.env.timeout(warmup)
        metrics.begin_window(self.env.now)

    def _controller_process(self, schedule):
        """Run timed actions (e.g. Fig. 9's delegation requests).

        *schedule* is a list of ``(time, callable)`` pairs; each
        callable runs against the live cluster at its simulated time
        and its RPC trace is replayed for cost accounting.
        """
        last = 0.0
        for when, action in sorted(schedule, key=lambda item: item[0]):
            if when > last:
                yield self.env.timeout(when - last)
                last = when
            _, trace = self.network.capture("controller", "control", action)
            for child in trace.children:
                self.env.process(self._replay(child))

    # ------------------------------------------------------------------
    def run(self, workload, n_clients=8, duration=60.0, warmup=10.0,
            update_workload=None, update_rate=0.0, pre_query=None,
            schedule=None):
        """Run a closed-loop experiment; returns :class:`WorkloadMetrics`.

        *workload* must expose ``sample() -> (query, type)``.  With
        *update_rate* > 0 an open-loop sensor stream runs alongside.
        *schedule* holds timed control actions (ownership migrations).
        """
        metrics = WorkloadMetrics()
        stop_at = warmup + duration
        for _ in range(n_clients):
            self.env.process(self._client_process(workload, metrics, stop_at,
                                                  warmup,
                                                  pre_query=pre_query))
        if update_workload is not None and update_rate > 0:
            self.env.process(self._update_process(update_workload,
                                                  update_rate, stop_at))
        self.env.process(self._window_process(metrics, warmup))
        if schedule:
            self.env.process(self._controller_process(schedule))
        self.env.run(until=stop_at)
        metrics.close_window(self.env.now)
        return metrics

    # ------------------------------------------------------------------
    def utilizations(self, horizon):
        return {
            site: round(server.utilization(horizon), 3)
            for site, server in self.servers.items()
        }

    def engine_counters(self):
        """Index and serialization cache counters across all sites."""
        return engine_counters(
            {site: agent.database
             for site, agent in self.cluster.agents.items()}
        )
