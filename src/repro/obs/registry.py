"""Unified metrics: counter/gauge/histogram primitives + collectors.

The repo grew several ad-hoc metric surfaces -- the per-database
``stats`` dicts, per-subsystem counters, and the DNS/connection-pool
stats dicts.  This module puts one registry in front of all of them:

* **Primitives** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) for new instrumentation, thread-safe and
  snapshot-able;
* **Collectors**: zero-argument callables returning plain dicts, which
  is exactly what every existing ``stats`` surface already is -- so the
  legacy dicts keep working untouched and the registry absorbs them at
  snapshot time;
* **Aggregation helpers**: :func:`sum_numeric` / :func:`sum_per_site`
  (the one "sum the numeric keys, keep per-site snapshots" rule that
  every subsystem's ``metrics()`` hook feeds), the engine / fault /
  semantic-cache roll-ups built on it, and :func:`site_metrics` /
  :func:`cluster_metrics` behind ``OrganizingAgent.metrics()`` /
  ``Cluster.metrics()``.
"""

import threading


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def snapshot(self):
        return self._value

    def __repr__(self):
        return f"Counter({self.name!r}, {self._value})"


class Gauge:
    """A value that goes up and down (pool sizes, open circuits, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self._value = value

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    def dec(self, amount=1):
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        return self._value

    def snapshot(self):
        return self._value

    def __repr__(self):
        return f"Gauge({self.name!r}, {self._value})"


class Histogram:
    """Summary statistics over observed values (latencies, sizes).

    Keeps count/sum/min/max exactly plus a bounded reservoir of the
    most recent observations for approximate percentiles -- enough for
    the paper-style latency reporting without unbounded memory.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_recent", "_limit", "_lock")

    def __init__(self, name, keep_recent=1024):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        self._recent = []
        self._limit = keep_recent
        self._lock = threading.Lock()

    def observe(self, value):
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
            self._recent.append(value)
            if len(self._recent) > self._limit:
                del self._recent[: len(self._recent) - self._limit]

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction):
        """Approximate percentile over the recent reservoir."""
        with self._lock:
            return self._percentile_locked(fraction)

    def snapshot(self):
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.total / self.count if self.count else 0.0,
                "p95": self._percentile_locked(0.95),
            }

    def _percentile_locked(self, fraction):
        sample = sorted(self._recent)
        if not sample:
            return 0.0
        index = min(len(sample) - 1, int(fraction * len(sample)))
        return sample[index]

    def __repr__(self):
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """Named primitives plus pluggable collectors, one snapshot call.

    ``snapshot()`` returns a plain nested dict: every registered
    primitive under its name, and every collector's dict under the
    collector's name.  Collector failures are reported in-band (an
    ``{"error": ...}`` entry) instead of breaking the whole snapshot.
    """

    def __init__(self, name=""):
        self.name = name
        self._lock = threading.Lock()
        self._metrics = {}
        self._collectors = {}

    # -- primitives -----------------------------------------------------
    def _get_or_make(self, name, factory, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}")
            return metric

    def counter(self, name):
        return self._get_or_make(name, Counter, Counter)

    def gauge(self, name):
        return self._get_or_make(name, Gauge, Gauge)

    def histogram(self, name):
        return self._get_or_make(name, Histogram, Histogram)

    # -- collectors -----------------------------------------------------
    def register_collector(self, name, collect):
        """Absorb an existing stats surface: *collect()* -> dict."""
        with self._lock:
            self._collectors[name] = collect

    def snapshot(self):
        with self._lock:
            metrics = dict(self._metrics)
            collectors = dict(self._collectors)
        out = {}
        for name, metric in sorted(metrics.items()):
            out[name] = metric.snapshot()
        for name, collect in sorted(collectors.items()):
            try:
                out[name] = collect()
            except Exception as exc:  # pragma: no cover - defensive
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def __repr__(self):
        return (f"MetricsRegistry({self.name!r}, "
                f"metrics={len(self._metrics)}, "
                f"collectors={len(self._collectors)})")


# ----------------------------------------------------------------------
# Canonical aggregations
# ----------------------------------------------------------------------
def _values(mapping_or_iterable):
    if hasattr(mapping_or_iterable, "values"):
        return mapping_or_iterable.values()
    return mapping_or_iterable


def sum_numeric(snapshots, keys=None):
    """Key-wise sum of the numeric values across *snapshots* (dicts).

    With *keys* only those are summed and each is present (zero when no
    snapshot carries it); without, every top-level ``int``/``float``
    value is (``bool`` flags, lists and nested dicts are skipped).
    """
    totals = dict.fromkeys(keys, 0) if keys is not None else {}
    for snapshot in snapshots:
        for key in (snapshot if keys is None else keys):
            value = snapshot.get(key, 0)
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def sum_per_site(snapshots):
    """Cluster-wide totals of one subsystem's per-site ``metrics()``.

    *snapshots* maps site -> that site's flat counters dict.  Numeric
    keys are summed; the per-site dicts are kept under ``sites``.  With
    no sites the result is just ``{"sites": {}}``.
    """
    totals = sum_numeric(snapshots.values())
    totals["sites"] = dict(sorted(snapshots.items()))
    return totals


def engine_counters(databases):
    """Aggregate hot-path engine counters across site databases.

    Sums the id-path index hit/miss/rebuild counters of every
    :class:`~repro.core.database.SensorDatabase` in *databases* (a
    mapping of site -> database or an iterable of databases) and
    snapshots the process-wide serialization reuse counters.
    """
    from repro.xmlkit.serializer import serialization_stats

    totals = sum_numeric(
        (database.stats for database in _values(databases)),
        keys=("index_hits", "index_misses", "index_rebuilds"))
    serialization = serialization_stats()
    reused = serialization["cache_hits"]
    rebuilt = serialization["cache_misses"]
    totals["serialization_reused"] = reused
    totals["serialization_rebuilt"] = rebuilt
    total_lookups = totals["index_hits"] + totals["index_misses"]
    totals["index_hit_ratio"] = (
        round(totals["index_hits"] / total_lookups, 3)
        if total_lookups else 0.0
    )
    totals["serialization_reuse_ratio"] = (
        round(reused / (reused + rebuilt), 3) if reused + rebuilt else 0.0
    )
    return totals


def fault_counters(agents):
    """Aggregate the fault-handling counters across organizing agents.

    Sums each OA's retry/failure/breaker/DNS-refresh stats and its
    gather driver's degradation counters, and merges every per-peer
    circuit-breaker snapshot into ``breakers`` (keyed
    ``observing_site -> peer``).
    """
    agents = list(_values(agents))
    totals = sum_numeric(
        (agent.stats for agent in agents),
        keys=("retries", "subquery_failures", "circuit_fast_fails",
              "dns_refreshes"))
    totals.update(sum_numeric(
        (getattr(agent.driver, "stats", {}) for agent in agents),
        keys=("failed_subqueries", "partial_gathers", "stale_served")))
    breakers = {}
    for agent in agents:
        snapshot = agent.health_snapshot()
        if snapshot:
            breakers[agent.site_id] = snapshot
    totals["breakers"] = breakers
    return totals


def health_snapshots(agents):
    """Per-site circuit-breaker health, keyed ``site -> peer``.

    The direct :meth:`SiteHealthTracker.health_snapshot` surface for
    ``cluster.metrics()`` -- unlike the ``faults`` aggregation this is
    always present (empty dicts for sites that tracked no peer yet),
    so dashboards can rely on the key existing.
    """
    return {site: agent.health_snapshot()
            for site, agent in sorted(agents.items())}


def semcache_counters(agents):
    """Aggregate semantic-cache counters across organizing agents.

    Sums every driver's aggregate-cache hit/miss/coalesce/byte figures
    and its bucket/prewarm counters, computes the overall hit ratio,
    and snapshots the process-wide canonicalizer memo and compile-key
    stats once (tagged ``scope: process`` -- never summed per site).
    """
    from repro.core.qeg import pattern_key_stats
    from repro.core.semcache import canonicalization_stats

    drivers = [agent.driver for agent in _values(agents)]
    totals = sum_numeric(
        (driver.aggregates.metrics() for driver in drivers),
        keys=("hits", "misses", "stores", "stale_rejects",
              "bucket_coalesced_hits", "evictions",
              "entries", "bytes"))
    totals.update(sum_numeric(
        (driver.stats for driver in drivers),
        keys=("bucket_generalized", "bucket_rechecks", "prewarm_queries")))
    lookups = totals["hits"] + totals["misses"]
    totals["hit_ratio"] = (
        round(totals["hits"] / lookups, 3) if lookups else 0.0
    )
    totals["canonicalizer"] = dict(canonicalization_stats(),
                                   scope="process")
    totals["compile_keys"] = dict(pattern_key_stats(), scope="process")
    return totals


def build_site_registry(agent):
    """A registry absorbing one organizing agent's metric surfaces.

    Everything the OA already counts keeps its dict shape (the
    collectors snapshot the live dicts), so legacy readers and the
    unified snapshot always agree.
    """
    registry = MetricsRegistry(name=f"site:{agent.site_id}")
    registry.register_collector("oa", lambda: dict(agent.stats))
    registry.register_collector("gather",
                                lambda: dict(agent.driver.stats))
    registry.register_collector("database",
                                lambda: dict(agent.database.stats))
    registry.register_collector("dns_cache",
                                lambda: dict(agent.resolver.stats))
    registry.register_collector("engine", agent.engine_counters)
    registry.register_collector("semcache", agent.driver.semcache_counters)
    registry.register_collector("breakers", agent.health_snapshot)
    # The migration-safety stats (migrations_in/out/aborted, held
    # updates, eviction counts) already flow through the "oa"
    # collector; this adds the per-path load attribution figures.
    registry.register_collector("load", agent.load.counters)
    # One section per registered subsystem that reports metrics
    # (continuous queries always; durability, replication, ... when on).
    for name, collect in subsystem_collectors(agent).items():
        registry.register_collector(name, collect)
    return registry


def subsystem_collectors(agent):
    """``{name: metrics}`` for *agent*'s subsystems that define the
    ``metrics()`` hook (see :mod:`repro.net.subsystem`)."""
    return {
        name: subsystem.metrics
        for name, subsystem in agent.subsystems.items()
        if hasattr(subsystem, "metrics")
    }


def build_cluster_registry(cluster):
    """A registry absorbing a whole cluster's metric surfaces."""
    registry = MetricsRegistry(name="cluster")
    registry.register_collector("cluster", lambda: dict(cluster.stats))
    registry.register_collector("dns_server",
                                lambda: dict(cluster.dns.stats))
    # The network may be wrapped (e.g. a FaultyNetwork around the
    # loopback): only absorb the surfaces the wrapper exposes.
    traffic = getattr(cluster.network, "traffic", None)
    if traffic is not None:
        registry.register_collector("traffic", traffic.summary)
    pool_stats = getattr(cluster.network, "pool_stats", None)
    if pool_stats is not None:
        registry.register_collector("pool", lambda: dict(pool_stats))
    registry.register_collector(
        "engine",
        lambda: engine_counters(
            {site: a.database for site, a in cluster.agents.items()}),
    )
    registry.register_collector(
        "faults", lambda: fault_counters(cluster.agents))
    registry.register_collector(
        "semcache", lambda: semcache_counters(cluster.agents))
    # One summed section per subsystem any site runs: the generic
    # per-site sum of its metrics() hook, post-processed by the
    # subsystem's cluster-level rollup() when it has one.
    names = {name for agent in cluster.agents.values()
             for name in subsystem_collectors(agent)}
    for name in sorted(names):
        registry.register_collector(
            name, lambda name=name: _subsystem_section(cluster, name))
    registry.register_collector(
        "health", lambda: health_snapshots(cluster.agents))

    def per_site():
        return {site: site_metrics(agent)
                for site, agent in sorted(cluster.agents.items())}

    registry.register_collector("sites", per_site)
    return registry


def _subsystem_section(cluster, name):
    snapshots = {}
    for site, agent in cluster.agents.items():
        collect = getattr(agent.subsystem(name), "metrics", None)
        if collect is not None:
            snapshots[site] = collect()
    totals = sum_per_site(snapshots)
    rollup = getattr(cluster.subsystem(name), "rollup", None)
    return rollup(totals) if rollup is not None else totals


def site_metrics(agent):
    """One OA's unified snapshot (used by ``OrganizingAgent.metrics``)."""
    return build_site_registry(agent).snapshot()


def cluster_metrics(cluster):
    """Cluster-wide unified snapshot (used by ``Cluster.metrics``)."""
    return build_cluster_registry(cluster).snapshot()
