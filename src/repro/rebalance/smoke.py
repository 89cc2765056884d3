"""Rebalancing smoke check: a hot site splits and tail latency drops.

``python -m repro.smoke rebalance`` (needs ``PYTHONPATH=src:.``) stands
up a three-site TCP deployment from the scenario generator (root +
``oa-z0`` + ``oa-z1``), then:

* calibrates the single-site query cost and offers a zipf-skewed
  open-loop window at ~1.4x one site's capacity, 90% of it aimed at
  sub-zones of ``z0`` -- the hot site saturates and its backlog is
  charged to tail latency, open-loop style;
* runs one balancer tick: the load tracker's deltas flag ``oa-z0``,
  the planner splits its fragment along the ``z0/z*`` IDable
  boundary, and the move executes live over the same TCP sockets the
  load uses; afterwards every site owns exactly what DNS names it for;
* offers an identical second window against the post-migration
  routing and requires p99 to drop.

Every query in both windows must be answered (zero errors, zero
drops) -- the migration happens *under* load in the first window's
drain and must not lose anything.  Fragment caching is off so offered
load translates into evaluator work at the owner: the skewed suite only
has a handful of distinct queries, and a warm site database would
answer them all without any site ever getting hot (a fine production
outcome, but this check is about the balancer).

The summary carries per-window latency, the executed moves and the
balancer and migration counters, so CI can archive what the balancer
actually did.
"""

import time

from repro.smoke import impatient_oa_config


def run(artifacts):
    from repro.core.invariants import dns_ownership_violations
    from repro.net.tcpruntime import TcpCluster
    from repro.rebalance import RebalanceConfig
    from repro.service.scenarios import (
        ScenarioConfig,
        ScenarioWorkload,
        build_document,
        build_plan,
        rollup_query,
        site_name,
    )
    from repro.service.workload import run_open_loop

    problems = []
    config = ScenarioConfig(fanout=2, depth=2, sensors_per_group=25,
                            site_depth=1, seed=7)
    oa_config = impatient_oa_config(failure_threshold=8,
                                    cache_results=False)
    # ``service_delay`` gives every site a per-machine service time
    # (slept holding the site guard, GIL-free): per-*site* capacity is
    # real even though all sites share this interpreter, so a hot site
    # saturates while its peers sit idle -- the regime rebalancing is
    # for.
    tcp = TcpCluster(
        build_document(config), build_plan(config),
        oa_config=oa_config, max_pending=4096, service_delay=0.025,
        subsystems=[RebalanceConfig(min_queries=32, overload_ratio=1.5)])
    try:
        cluster = tcp.cluster
        hot_site = site_name((0,))

        # Calibrate the full-path cost of one sub-zone rollup (client
        # socket -> framing -> site guard -> service delay -> eval ->
        # reply): 1/cost bounds one site's capacity.  Offer ~1.25x
        # that, 90% of it aimed under ``z0``: the hot site is past
        # saturation and its backlog dominates p99, while the cluster
        # as a whole has ample headroom for the post-split windows.
        from repro.net.messages import QueryMessage

        probe = rollup_query(config, shape="sum", zone=(0, 0))
        network = cluster.network
        network.request("client", hot_site,
                        QueryMessage(probe, scalar=True, sender="client"))
        start = time.monotonic()
        for _ in range(30):
            network.request("client", hot_site,
                            QueryMessage(probe, scalar=True,
                                         sender="client"))
        cost = (time.monotonic() - start) / 30
        capacity = 1.0 / max(cost, 1e-4)
        target_qps = max(10.0, min(600.0, 1.25 * capacity))

        def window(seed):
            workload = ScenarioWorkload(config, shape="sum", skew=0.9,
                                        seed=seed)
            return run_open_loop(cluster, workload,
                                 target_qps=target_qps, duration=3.0,
                                 seed=seed, drain_timeout=60.0)

        before = window(seed=1)
        moves = cluster.subsystem("rebalance").tick()
        problems.extend(dns_ownership_violations(
            {site: agent.database for site, agent in cluster.agents.items()},
            cluster.dns.authoritative_site))
        after = window(seed=2)

        for stage, result in (("before", before), ("after", after)):
            if result.errors:
                problems.append(
                    f"{stage}: {result.errors} queries raised errors")
            if result.dropped:
                problems.append(
                    f"{stage}: {result.dropped} queries were dropped")
        if not moves:
            problems.append("the balancer executed no migration")
        elif {move.source for move in moves} != {hot_site}:
            problems.append(f"migrations did not come from the hot "
                            f"site {hot_site!r}: {moves}")
        p99_before = before.percentile(0.99)
        p99_after = after.percentile(0.99)
        if not p99_after < p99_before:
            problems.append(
                f"p99 did not drop after rebalancing "
                f"({p99_before * 1000:.1f}ms -> {p99_after * 1000:.1f}ms)")

        counters = cluster.metrics()["rebalance"]
        summary = {
            "scenario": repr(config),
            "calibrated_query_cost_ms": round(cost * 1000, 3),
            "target_qps": round(target_qps, 1),
            "moves": [{"id_path": list(map(list, move.id_path)),
                       "source": move.source, "target": move.target,
                       "load": move.load} for move in moves],
            "before": before.summary(),
            "after": after.summary(),
            "balancer": counters["balancer"],
            "migrations": {
                key: counters[key]
                for key in ("migrations_out", "migrations_in",
                            "migrations_aborted")},
        }
        moved = ", ".join(
            "/".join(f"{tag}={value}" for tag, value in move.id_path)
            + f" -> {move.target}" for move in moves)
        summary["headline"] = (
            f"hot site split under load ({moved}); p99 "
            f"{summary['before']['latency_ms']['p99']}ms -> "
            f"{summary['after']['latency_ms']['p99']}ms at "
            f"{summary['target_qps']} qps, zero failed queries.")
        return problems, summary
    finally:
        tcp.close()
