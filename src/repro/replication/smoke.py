"""Replication smoke check: kill an owner, serve from replicas, rehydrate.

``python -m repro.smoke replication`` (needs ``PYTHONPATH=src:.``)
stands up a three-site TCP deployment with ``ReplicationConfig(k=2)``
and **no durability at all**, then walks the full availability loop:

* baseline: every query in the suite answers complete;
* kill the mid-tier owner: every query still answers, byte-identical
  to baseline and annotated ``served_by_replica`` — zero failed
  queries while the owner is down;
* restart the owner: the fragment comes back from peer replicas
  (``site_rehydrations``), since there is no WAL to replay, and the
  suite answers byte-identically again.

The summary carries the replication/failover/rehydration counters, so
CI can archive what failover actually did.
"""

from repro.smoke import (
    G0_S1,
    THREE_SITE_QUERIES as QUERIES,
    impatient_oa_config,
    three_site_document,
    three_site_plan,
    ticking_clock,
)


def _ask_all(cluster, problems, stage, at_site="top"):
    """Run the query suite at a live site; every answer must be
    complete.  Returns canonical answer bytes keyed by query plus the
    number of ``served_by_replica`` annotations seen."""
    from repro.xmlkit import serialize

    answers = {}
    served = 0
    for query in QUERIES:
        results, _site, outcome = cluster.query(query, at_site=at_site)
        report = outcome.completeness_report()
        if not outcome.complete:
            problems.append(
                f"{stage}: incomplete answer for {query}: "
                f"{report['unreachable'] or report['replica_too_stale']}")
        served += len(report["served_by_replica"])
        answers[query] = sorted(
            serialize(r, sort_attributes=True, use_cache=False)
            for r in results)
    return answers, served


def run(artifacts):
    from repro.net.messages import UpdateMessage
    from repro.net.tcpruntime import TcpCluster
    from repro.replication import ReplicationConfig

    problems = []
    # An *advancing* clock: replica merges arbitrate by data timestamp,
    # so updates must carry a newer stamp than the bootstrap copy (the
    # default clock is a constant).
    tcp = TcpCluster(three_site_document(), three_site_plan(),
                     oa_config=impatient_oa_config(),
                     subsystems=[ReplicationConfig(k=2)],
                     clock=ticking_clock())
    try:
        cluster = tcp.cluster
        # Through the OA, not the bare database: the handler is what
        # re-replicates the touched region to the owner's peers.
        cluster.agents["mid"].handle_message(UpdateMessage(
            G0_S1, values={"value": "7"}, sender="sa-smoke"))
        baseline, _ = _ask_all(cluster, problems, "baseline")

        tcp.kill_site("mid")
        # Ask from a cold-cache site: a warm asker would answer from
        # its own cache (availability the paper already provides);
        # the smoke must exercise the *failover* path.
        outage, served = _ask_all(cluster, problems, "during outage",
                                  at_site="leaf")
        if outage != baseline:
            problems.append("outage answers differ from baseline")
        if served == 0:
            problems.append("no answer was annotated served_by_replica")

        tcp.restart_site("mid")
        if cluster.stats["site_rehydrations"] < 1:
            problems.append("restart did not rehydrate from peers")
        healed, _ = _ask_all(cluster, problems, "after restart")
        if healed != baseline:
            problems.append("post-restart answers differ from baseline")

        counters = cluster.metrics()["replication"]
        summary = {
            "queries": QUERIES,
            "failed_queries": sum(
                1 for problem in problems if "incomplete" in problem),
            "replica_served_annotations": served,
            "site_rehydrations": cluster.stats["site_rehydrations"],
            "rehydrated_bytes": cluster.stats["rehydrated_bytes"],
            "cluster_counters": {
                key: counters[key]
                for key in ("failover_attempts", "failover_served",
                            "replica_too_stale", "failover_no_replica",
                            "replicated_batches",
                            "replica_batches_accepted")},
        }
        summary["headline"] = (
            f"owner 'mid' killed with zero failed queries "
            f"({counters['failover_served']} subqueries replica-served), "
            f"then restarted from peer replicas "
            f"({summary['rehydrated_bytes']} bytes rehydrated, no WAL).")
        return problems, summary
    finally:
        tcp.close()
