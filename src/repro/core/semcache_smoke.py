"""Semantic-cache smoke check: log, prewarm, replay, assert a floor.

``python -m repro.smoke semcache`` (needs ``PYTHONPATH=src:.``) drives
a skewed parking workload against a live loopback cluster while
capturing the query log (exactly as ``service.run_live`` does in
production), then

* saves the log as JSONL,
* prewarms a **fresh, cold** cluster from the saved log
  (:func:`repro.core.semcache.prewarm`), and
* replays the logged trace against the warmed cluster, asserting that
  at least :data:`FLOOR` of the queries are served entirely from warmed
  caches (zero new wire subqueries).

The summary carries the replay hit rates cold vs warmed, the prewarm
stats and the cluster's semcache counters; the captured log is written
to ``<artifacts>/queries.jsonl`` so CI can archive both.
"""

import os

#: How many workload queries to log, and the minimum warmed-replay
#: cache-served rate.
COUNT = 40
FLOOR = 0.6


def _build_cluster():
    from repro.arch.architectures import hierarchical
    from repro.net import Cluster
    from repro.service import ParkingConfig, build_parking_document

    config = ParkingConfig.tiny()
    architecture = hierarchical(config, n_sites=7)
    cluster = Cluster(build_parking_document(config), architecture.plan)
    return config, cluster


def _scalar_round(config):
    """Jittered scalar aggregates: ``(stored spelling, jitter)`` pairs.

    Each pair is semantically one query -- whitespace/predicate-order
    jitter, or a 28s-vs-30s freshness bound sharing one answer key --
    so the second spelling must hit the entry the first one stored.
    """
    from repro.service import parking

    base = parking.type1_query(
        config, config.city_names()[0], config.neighborhood_names()[0],
        config.block_ids()[0], selection="cheap")
    spaced = base.replace("[available='yes'][price='0']",
                          "[ price = '0' ][ available = 'yes' ]")
    return [
        (f"count({base})", f"count( {spaced} )"),
        (f"count({base}[timestamp > now - 30])",
         f"count({base}[timestamp > now - 28])"),
    ]


def _replay(cluster, entries):
    """Replay logged *entries*; count queries served without the wire."""
    def total_sent():
        return sum(agent.stats["subqueries_sent"]
                   for agent in cluster.agents.values())

    served_warm = 0
    for entry in entries:
        before = total_sent()
        cluster.query(entry["query"])
        if total_sent() == before:
            served_warm += 1
    return served_warm


def run(artifacts):
    from repro.core.semcache import QueryLog, prewarm
    from repro.obs.registry import cluster_metrics
    from repro.service import QueryWorkload, run_live

    log_path = os.path.join(artifacts, "queries.jsonl")

    # Live traffic on a cold cluster, query log attached.
    config, cold_cluster = _build_cluster()
    workload = QueryWorkload.qw_mix(config, skew=0.8, seed=11)
    query_log = QueryLog()
    run_live(cold_cluster, workload, COUNT, query_log=query_log)

    # Jittered scalar aggregates exercise the semantic keys directly:
    # the second spelling of each pair must hit the first one's entry.
    scalar_pairs = _scalar_round(config)
    for stored, jitter in scalar_pairs:
        cold_cluster.scalar(stored, max_age=600)
        cold_cluster.scalar(jitter, max_age=600)
        query_log.record(stored)
    cold_snapshot = cluster_metrics(cold_cluster)["semcache"]

    saved = query_log.save(log_path)

    # A fresh deployment, warmed purely from the saved log.
    _config, warm_cluster = _build_cluster()
    loaded = QueryLog.load(log_path)
    prewarm_report = prewarm(warm_cluster, loaded)

    # Replaying the fragment trace should now mostly bypass the wire,
    # and the jittered scalar spellings must hit the prewarmed entries.
    entries = [e for e in loaded if not e["query"].startswith("count(")]
    served_warm = _replay(warm_cluster, entries)
    warm_rate = served_warm / len(entries) if entries else 0.0
    for _stored, jitter in scalar_pairs:
        warm_cluster.scalar(jitter, max_age=600)
    warm_snapshot = cluster_metrics(warm_cluster)["semcache"]

    # The same replay against a second cold cluster, for contrast.
    _config, control_cluster = _build_cluster()
    served_cold = _replay(control_cluster, entries)
    cold_rate = served_cold / len(entries) if entries else 0.0

    problems = []
    if saved != COUNT + len(scalar_pairs):
        problems.append(
            f"logged {saved} queries, expected {COUNT + len(scalar_pairs)}")
    if prewarm_report["failures"]:
        problems.append(f"prewarm failures: {prewarm_report['failures']}")
    if prewarm_report["replayed"] == 0:
        problems.append("prewarm replayed nothing")
    if warm_rate < FLOOR:
        problems.append(
            f"warmed replay served {warm_rate:.0%} from cache, "
            f"floor is {FLOOR:.0%}")
    if warm_rate <= cold_rate:
        problems.append(
            f"prewarming did not help: warm {warm_rate:.0%} "
            f"<= cold {cold_rate:.0%}")
    if cold_snapshot["hits"] < len(scalar_pairs):
        problems.append(
            f"jittered scalars hit {cold_snapshot['hits']} times, "
            f"expected >= {len(scalar_pairs)}")
    if warm_snapshot["hits"] < len(scalar_pairs):
        problems.append(
            f"prewarmed scalars hit {warm_snapshot['hits']} times, "
            f"expected >= {len(scalar_pairs)}")

    report = {
        "count": COUNT,
        "floor": FLOOR,
        "prewarm": prewarm_report,
        "replay": {
            "warm_served_from_cache": served_warm,
            "warm_rate": round(warm_rate, 4),
            "cold_served_from_cache": served_cold,
            "cold_rate": round(cold_rate, 4),
        },
        "semcache": {"cold": cold_snapshot, "warm": warm_snapshot},
        "headline": (
            f"prewarmed {prewarm_report['replayed']} unique queries "
            f"across {sorted(prewarm_report['by_site'])}; replay served "
            f"warm {warm_rate:.0%} vs cold {cold_rate:.0%} from cache "
            f"(floor {FLOOR:.0%})."),
    }
    return problems, report
