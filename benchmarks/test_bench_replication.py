"""Availability under owner failure: k=0 vs k=2 read replication.

A five-site TCP deployment (one hub owning the region root, four
sites owning one sensor group each) serves a fixed query mix over
real sockets, with caching disabled so every query is exposed to the
failure instead of the first one only.  Four scenarios: replication
off (k=0) and on (k=2), each with zero and one owner killed
mid-deployment.

Reported per scenario: availability (fraction of queries answered
*complete*), raised queries (must always be zero -- failures degrade,
never raise), and mean/p99 latency.  The contract quantified here is
the tentpole's acceptance bar: with k=2 and one owner down, zero
failed queries and >= 99% complete answers; with k=0 the same kill
visibly punches a hole in availability.

Results are written to ``BENCH_replication.json``.
``REPRO_BENCH_QUICK=1`` shrinks the workload for smoke runs.
"""

import os
import time

from benchmarks.conftest import print_table
from benchmarks.reporting import write_report
from repro.core import PartitionPlan
from repro.net import BreakerPolicy, OAConfig, RetryPolicy
from repro.net.tcpruntime import TcpCluster
from repro.replication import ReplicationConfig
from repro.xmlkit import Element

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_GROUPS = 4
N_SENSORS = 4 if QUICK else 8
N_QUERIES = 80 if QUICK else 240
VICTIM = "s1"
RESULTS_FILE = "BENCH_replication.json"

#: Small but real backoff delays, so failover cost shows up honestly.
RETRIES = dict(max_attempts=3, base_delay=0.001, multiplier=2.0,
               max_delay=0.004, jitter=0.5)


def _document():
    root = Element("region", attrib={"id": "R"})
    for group_index in range(N_GROUPS):
        group = Element("group", attrib={"id": f"g{group_index}"})
        root.append(group)
        for sensor_index in range(N_SENSORS):
            sensor = Element("sensor",
                             attrib={"id": f"s{sensor_index}"})
            sensor.append(Element("value", text=str(sensor_index)))
            group.append(sensor)
    return root


def _plan():
    assignments = {"hub": [(("region", "R"),)]}
    for group_index in range(N_GROUPS):
        assignments[f"s{group_index}"] = [
            (("region", "R"), ("group", f"g{group_index}"))
        ]
    return PartitionPlan(assignments)


def _workload():
    """Alternating single-group fetches and region-wide fan-outs,
    touching the victim's group on a fixed fraction of queries."""
    queries = []
    for index in range(N_QUERIES):
        if index % 5 == 0:
            queries.append("/region[@id='R']/group/sensor[@id='s1']")
        else:
            group = (index * 3) % N_GROUPS
            sensor = (index * 7) % N_SENSORS
            queries.append(f"/region[@id='R']/group[@id='g{group}']"
                           f"/sensor[@id='s{sensor}']")
    return queries


def _run_scenario(k, kill):
    tcp = TcpCluster(
        _document(), _plan(),
        oa_config=OAConfig(
            cache_results=False,
            retry_policy=RetryPolicy(**RETRIES),
            breaker=BreakerPolicy(failure_threshold=3,
                                  reset_timeout=30.0)),
        subsystems=[ReplicationConfig(k=k)])
    try:
        if kill:
            tcp.kill_site(VICTIM)
        latencies = []
        complete = 0
        raised = 0
        for query in _workload():
            started = time.perf_counter()
            try:
                _results, _site, outcome = tcp.cluster.query(
                    query, at_site="hub")
            except Exception:
                raised += 1
                latencies.append(time.perf_counter() - started)
                continue
            latencies.append(time.perf_counter() - started)
            if outcome.complete:
                complete += 1
        ordered = sorted(latencies)
        point = {
            "k": k,
            "owners_killed": kill,
            "queries": len(latencies),
            "availability": complete / len(latencies),
            "raised": raised,
            "mean_latency_ms": sum(latencies) / len(latencies) * 1000,
            "p99_latency_ms":
                ordered[int(0.99 * (len(ordered) - 1))] * 1000,
        }
        if k > 0:
            counters = tcp.cluster.metrics()["replication"]
            point["failover_served"] = counters["failover_served"]
        return point
    finally:
        tcp.close()


def _run():
    return {(k, kill): _run_scenario(k, kill)
            for k in (0, 2) for kill in (0, 1)}


def test_availability_under_owner_failure(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)

    print_table(
        f"Owner failure on a 5-site TCP cluster "
        f"({N_QUERIES} queries, victim {VICTIM!r})",
        ["avail", "raised", "mean ms", "p99 ms"],
        [
            (f"k={k} kills={kill}",
             round(point["availability"], 3),
             point["raised"],
             round(point["mean_latency_ms"], 2),
             round(point["p99_latency_ms"], 2))
            for (k, kill), point in sorted(table.items())
        ],
        note="availability = fraction answered complete; k=2 serves "
             "the dead owner's region from ring replicas",
    )
    write_report(
        RESULTS_FILE, "replication",
        params={"groups": N_GROUPS, "sensors": N_SENSORS,
                "queries": N_QUERIES, "victim": VICTIM, "quick": QUICK,
                "retry_policy": dict(RETRIES)},
        metrics={f"k={k} kills={kill}": point
                 for (k, kill), point in sorted(table.items())},
    )

    # Queries never raise, in any scenario: they heal or degrade.
    assert all(point["raised"] == 0 for point in table.values())
    # Fault-free runs answer everything, replicated or not.
    assert table[(0, 0)]["availability"] == 1.0
    assert table[(2, 0)]["availability"] == 1.0
    # Without replication, killing an owner punches a hole.
    assert table[(0, 1)]["availability"] < 0.9
    # With k=2, the same kill is absorbed: the acceptance bar.
    assert table[(2, 1)]["availability"] >= 0.99
    assert table[(2, 1)]["failover_served"] > 0
