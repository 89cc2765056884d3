"""Query workloads QW-1..QW-4, QW-Mix and the skewed variants.

Section 5.3 evaluates five workloads: QW-1..QW-4 consist of randomly
generated queries of the corresponding type, and QW-Mix asks 40% type 1
and type 2 each, 15% type 3 and 5% type 4.  Section 5.4's skew
experiments use QW-Mix2 (50% type 1, 50% type 2) with 90% of the
queries targeting a single neighborhood.
"""

import random
import time

from repro.service import parking


class QueryWorkload:
    """A stream of queries drawn from a type mix, optionally skewed.

    *mix* maps query type (1..4) to probability.  With *skew* > 0, that
    fraction of the generated queries targets ``hot_neighborhood`` (in
    ``hot_city``); the rest are uniform.
    """

    def __init__(self, config, mix, selection="block", skew=0.0,
                 hot_city=None, hot_neighborhood=None, seed=None):
        self.config = config
        total = sum(mix.values())
        self.mix = {k: v / total for k, v in mix.items()}
        self.selection = selection
        self.skew = skew
        self.hot_city = hot_city or config.city_names()[0]
        self.hot_neighborhood = (hot_neighborhood
                                 or config.neighborhood_names()[0])
        self.rng = random.Random(seed)

    # -- factories for the paper's named workloads ----------------------
    @classmethod
    def qw(cls, config, query_type, **kwargs):
        """QW-1..QW-4: a single-type workload."""
        return cls(config, {query_type: 1.0}, **kwargs)

    @classmethod
    def qw_mix(cls, config, **kwargs):
        """QW-Mix: 40/40/15/5 over types 1-4 (Section 5.3)."""
        return cls(config, {1: 0.40, 2: 0.40, 3: 0.15, 4: 0.05}, **kwargs)

    @classmethod
    def qw_mix2(cls, config, **kwargs):
        """QW-Mix2: 50% type 1, 50% type 2 (Section 5.4)."""
        return cls(config, {1: 0.50, 2: 0.50}, **kwargs)

    # ------------------------------------------------------------------
    def _pick_type(self):
        roll = self.rng.random()
        acc = 0.0
        for query_type, probability in sorted(self.mix.items()):
            acc += probability
            if roll <= acc:
                return query_type
        return max(self.mix)

    def _pick_city(self):
        return self.rng.choice(self.config.city_names())

    def _pick_two(self, options):
        if len(options) < 2:
            return options[0], options[0]
        return self.rng.sample(options, 2)

    def sample(self):
        """Generate one query string (and its type) from the workload."""
        query_type = self._pick_type()
        config = self.config
        cities = config.city_names()
        neighborhoods = config.neighborhood_names()
        blocks = config.block_ids()
        hot = self.skew > 0 and self.rng.random() < self.skew

        if query_type == 1:
            city = self.hot_city if hot else self._pick_city()
            nb = self.hot_neighborhood if hot else self.rng.choice(neighborhoods)
            query = parking.type1_query(config, city, nb,
                                        self.rng.choice(blocks),
                                        selection=self.selection)
        elif query_type == 2:
            city = self.hot_city if hot else self._pick_city()
            nb = self.hot_neighborhood if hot else self.rng.choice(neighborhoods)
            block_a, block_b = self._pick_two(blocks)
            query = parking.type2_query(config, city, nb, block_a, block_b,
                                        selection=self.selection)
        elif query_type == 3:
            city = self._pick_city()
            nb_a, nb_b = self._pick_two(neighborhoods)
            query = parking.type3_query(config, city, nb_a, nb_b,
                                        self.rng.choice(blocks),
                                        selection=self.selection)
        elif query_type == 4:
            city_a, city_b = self._pick_two(cities)
            query = parking.type4_query(config, city_a, city_b,
                                        self.rng.choice(neighborhoods),
                                        self.rng.choice(blocks),
                                        selection=self.selection)
        else:
            raise ValueError(f"unknown query type {query_type}")
        return query, query_type

    def __call__(self):
        """Callable form returning just the query string."""
        return self.sample()[0]

    def take(self, count):
        """A list of *count* (query, type) samples."""
        return [self.sample() for _ in range(count)]


def run_live(cluster, workload, count, now=None, clock=time.monotonic,
             query_log=None):
    """Drive *count* workload queries against a **live** cluster.

    The simulator produces the paper's throughput/latency numbers by
    replaying traces offline; this is the online counterpart -- it
    poses real queries, times each one on the wall clock, and returns
    ``(metrics, report)`` where *metrics* is a
    :class:`repro.sim.metrics.WorkloadMetrics` (same summary shape as
    the simulated runs) and *report* is the cluster-wide snapshot from
    :func:`repro.obs.registry.cluster_metrics` taken at the end.

    With tracing enabled each query's trace id is appended to
    ``report["traces"]`` so individual executions can be pulled out of
    the tracer afterwards.

    *query_log* (a :class:`repro.core.semcache.QueryLog`) captures
    every posed query; saved logs feed cache prewarming
    (``Cluster.prewarm`` / ``repro.core.semcache.prewarm``) so a cold
    deployment starts with the caches live traffic would have built.
    """
    from repro.obs.registry import cluster_metrics
    from repro.obs.tracing import TRACER
    from repro.sim.metrics import WorkloadMetrics

    metrics = WorkloadMetrics()
    metrics.begin_window(clock())
    traces = []
    for _ in range(count):
        query, query_type = workload.sample()
        if query_log is not None:
            query_log.record(query, query_type=query_type)
        started = clock()
        with TRACER.span("workload-query", tags={"type": query_type}) \
                as span:
            cluster.query(query, now=now)
        finished = clock()
        metrics.record(finished, finished - started, query_type=query_type)
        if span.context is not None:
            traces.append(span.context.trace_id)
    metrics.close_window(clock())
    report = cluster_metrics(cluster)
    report["workload"] = metrics.summary()
    if traces:
        report["traces"] = traces
    return metrics, report


def _percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class OpenLoopResult:
    """What one :func:`run_open_loop` run measured.

    Latencies are measured from each request's *scheduled arrival
    time*, not from when a worker got around to sending it -- under
    saturation the queueing delay IS the latency, and hiding it is the
    classic closed-loop mistake (coordinated omission).
    """

    def __init__(self, target_qps, duration, offered, completed, errors,
                 dropped, latencies, max_in_flight):
        self.target_qps = target_qps
        self.duration = duration
        self.offered = offered
        self.completed = completed
        self.errors = errors
        self.dropped = dropped
        self.latencies = sorted(latencies)
        self.max_in_flight = max_in_flight

    @property
    def achieved_qps(self):
        """Successful completions per second of offered-load window."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def sustained(self):
        """Did the system keep up with the offered rate?

        Sustained means (nearly) every offered request completed
        successfully -- 95% is the tolerance for scheduler jitter at
        the window edges, not an error budget.
        """
        if self.offered == 0:
            return False
        return self.completed / self.offered >= 0.95

    def percentile(self, fraction):
        return _percentile(self.latencies, fraction)

    def summary(self):
        return {
            "target_qps": self.target_qps,
            "achieved_qps": round(self.achieved_qps, 2),
            "sustained": self.sustained,
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "dropped": self.dropped,
            "max_in_flight": self.max_in_flight,
            "latency_ms": {
                "p50": round(self.percentile(0.50) * 1000, 3),
                "p99": round(self.percentile(0.99) * 1000, 3),
                "max": round((self.latencies[-1] if self.latencies
                              else 0.0) * 1000, 3),
            },
        }


def run_open_loop(cluster, workload, target_qps, duration, seed=0,
                  now=None, clock=time.monotonic, max_workers=64,
                  drain_timeout=15.0):
    """Offer *workload* queries at *target_qps* for *duration* seconds.

    Unlike :func:`run_live` (closed-loop: the next query waits for the
    previous answer, so a slow system conveniently slows the load
    down), this is an **open-loop** generator: arrivals follow a seeded
    Poisson process at the target rate *regardless of completions*,
    the way independent wide-area clients actually behave.  A system
    that cannot keep up accumulates a backlog and its measured latency
    grows without bound -- which is the point.

    *workload* may be a :class:`QueryWorkload` (each arrival routes
    its query client-side, as ``query_via_messages`` does, and fires
    the user :class:`~repro.net.messages.QueryMessage` at the routed
    site) or an :class:`UpdateWorkload` (each arrival fires an
    :class:`~repro.net.messages.UpdateMessage` at the owning site --
    the wide-area ingest pattern, fanning out across every leaf).
    Either way the request goes to the wire.  Each in-flight request
    needs a worker thread and its own pooled connection (*max_workers*
    of them) -- arrivals beyond that queue, and their queueing time is
    charged to their latency, per coordinated-omission rules.

    Returns an :class:`OpenLoopResult`.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.net.errors import NetError
    from repro.net.messages import QueryMessage, UpdateMessage

    network = cluster.network
    rng = random.Random(seed)
    arrivals = []  # offsets from window start
    offset = 0.0
    while offset < duration:
        arrivals.append(offset)
        offset += rng.expovariate(target_qps)

    def _owner_site(path):
        """The site owning *path*: longest assigned prefix wins."""
        best_site, best_len = None, -1
        for site, prefixes in cluster.plan.assignments.items():
            for prefix in prefixes:
                if len(prefix) > best_len and path[:len(prefix)] == prefix:
                    best_site, best_len = site, len(prefix)
        return best_site

    plan = []
    for _ in arrivals:
        sampled = workload.sample()
        if isinstance(sampled[0], str):
            query, qtype = sampled
            # Aggregate/boolean samples (ScenarioWorkload's rollups) go
            # down the scalar path; location paths stay user queries.
            scalar = qtype in ("aggregate", "scalar", "boolean")
            plan.append((cluster.route_query(query)[0],
                         lambda q=query, s=scalar: QueryMessage(
                             q, now=now, scalar=s, user=not s,
                             sender="client")))
        else:
            path, values = sampled
            plan.append((_owner_site(path),
                         lambda p=path, v=values: UpdateMessage(
                             p, values=v, sender="client")))

    lock = threading.Lock()
    latencies = []
    state = {"completed": 0, "errors": 0, "in_flight": 0,
             "max_in_flight": 0}
    done = threading.Event()

    def begin():
        with lock:
            state["in_flight"] += 1
            if state["in_flight"] > state["max_in_flight"]:
                state["max_in_flight"] = state["in_flight"]

    def finish(scheduled, ok):
        elapsed = clock() - scheduled
        with lock:
            state["in_flight"] -= 1
            if ok:
                state["completed"] += 1
                latencies.append(elapsed)
            else:
                state["errors"] += 1
            if state["in_flight"] == 0:
                done.set()

    def fire_sync(site, message, scheduled):
        try:
            reply = network.request("client", site, message)
            ok = reply is not None and getattr(reply, "kind", "") != "error"
        except (OSError, NetError):
            ok = False
        finish(scheduled, ok)

    executor = ThreadPoolExecutor(max_workers=max_workers,
                                  thread_name_prefix="openloop")
    start = clock()
    try:
        for offset, (site, build) in zip(arrivals, plan):
            scheduled = start + offset
            delay = scheduled - clock()
            if delay > 0:
                time.sleep(delay)
            message = build()
            begin()
            executor.submit(fire_sync, site, message, scheduled)
        # Drain: requests offered inside the window may complete after
        # it; they count.  Whatever is still unfinished past the grace
        # period is dropped (the backlog of a saturated run).
        deadline = clock() + drain_timeout
        while clock() < deadline:
            with lock:
                if state["in_flight"] == 0:
                    break
            done.clear()
            done.wait(min(0.25, max(0.0, deadline - clock())))
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    with lock:
        dropped = state["in_flight"]
        return OpenLoopResult(
            target_qps=target_qps, duration=duration,
            offered=len(arrivals), completed=state["completed"],
            errors=state["errors"], dropped=dropped,
            latencies=list(latencies),
            max_in_flight=state["max_in_flight"])


def max_sustained_qps(run, rates):
    """The highest of *rates* the system kept up with.

    *run* is ``rate -> OpenLoopResult``; rates are tried in increasing
    order and the scan stops after two consecutive unsustained rates
    (a saturated system only gets worse).  Returns ``(best_rate,
    {rate: result})`` -- ``best_rate`` is 0.0 when nothing held.
    """
    best = 0.0
    results = {}
    misses = 0
    for rate in sorted(rates):
        result = run(rate)
        results[rate] = result
        if result.sustained:
            best = rate
            misses = 0
        else:
            misses += 1
            if misses >= 2:
                break
    return best, results


class UpdateWorkload:
    """A stream of random sensor updates over all parking spaces."""

    def __init__(self, config, seed=None):
        self.config = config
        self.paths = parking.all_space_paths(config)
        self.rng = random.Random(seed)

    def sample(self):
        """One ``(id_path, values)`` update."""
        path = self.rng.choice(self.paths)
        available = "yes" if self.rng.random() < 0.5 else "no"
        return path, {"available": available}

    def take(self, count):
        return [self.sample() for _ in range(count)]
