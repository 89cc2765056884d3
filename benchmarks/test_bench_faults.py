"""Availability and latency under seeded fault injection.

A star deployment (one hub owning the region, each node owned by its
own site) serves a fixed query workload through a
:class:`~repro.net.faults.FaultyNetwork` at 0%, 5% and 20% drop rates.
The retry layer heals what it can within its attempt budget; the rest
degrades to partial answers.  The benchmark reports, per fault rate,
the mean and p95 query latency, the *availability* (fraction of
queries answered complete) and the retry/fault counters -- the
quantitative version of the failure-semantics contract: queries never
raise, they heal or degrade.

Results are written to ``BENCH_faults.json`` so CI can archive the
numbers.  ``REPRO_BENCH_QUICK=1`` shrinks the deployment and workload
for smoke runs.  The fault schedule is seeded, so a given
configuration replays the same drops every run.
"""

import os
import time

from benchmarks.conftest import print_table
from benchmarks.reporting import write_report
from repro.core import PartitionPlan
from repro.net import (
    Cluster,
    FaultyNetwork,
    LoopbackNetwork,
    OAConfig,
    RetryPolicy,
)
from repro.obs.registry import fault_counters
from repro.xmlkit import Element

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_NODES = 8 if QUICK else 16
N_QUERIES = 60 if QUICK else 240
FAULT_RATES = (0.0, 0.05, 0.20)
SEED = 29
RESULTS_FILE = "BENCH_faults.json"

#: Small but real backoff delays, so retry cost shows up in latency.
RETRIES = dict(max_attempts=3, base_delay=0.001, multiplier=2.0,
               max_delay=0.004, jitter=0.5)


def _star_document():
    root = Element("region", attrib={"id": "R"})
    for index in range(N_NODES):
        node = Element("node", attrib={"id": f"n{index:02d}"})
        node.append(Element("value", text=str(index)))
        root.append(node)
    return root


def _star_plan():
    assignments = {"hub": [(("region", "R"),)]}
    for index in range(N_NODES):
        assignments[f"leaf{index:02d}"] = [
            (("region", "R"), ("node", f"n{index:02d}"))
        ]
    return PartitionPlan(assignments)


def _workload():
    """Alternating wide fan-outs and single-node fetches."""
    queries = []
    for index in range(N_QUERIES):
        if index % 4 == 0:
            queries.append("/region[@id='R']/node")
        else:
            node = (index * 7) % N_NODES
            queries.append(f"/region[@id='R']/node[@id='n{node:02d}']")
    return queries


def _run_rate(drop_rate):
    network = FaultyNetwork(LoopbackNetwork(), seed=SEED,
                            drop_rate=drop_rate)
    cluster = Cluster(
        _star_document(), _star_plan(), service="star", network=network,
        # No caching: every query re-gathers, so every query is exposed
        # to the injected faults instead of the first one only.
        oa_config=OAConfig(cache_results=False, executor="serial",
                           retry_policy=RetryPolicy(**RETRIES)))
    latencies = []
    complete = 0
    for query in _workload():
        started = time.perf_counter()
        _results, _site, outcome = cluster.query(query, at_site="hub")
        latencies.append(time.perf_counter() - started)
        if outcome.complete:
            complete += 1
    ordered = sorted(latencies)
    fault_totals = fault_counters(cluster.agents)
    return {
        "drop_rate": drop_rate,
        "queries": len(latencies),
        "availability": complete / len(latencies),
        "mean_latency_ms": sum(latencies) / len(latencies) * 1000,
        "p95_latency_ms": ordered[int(0.95 * (len(ordered) - 1))] * 1000,
        "retries": fault_totals["retries"],
        "partial_gathers": fault_totals["partial_gathers"],
        "fault_stats": dict(network.fault_stats),
    }


def _run():
    return [_run_rate(rate) for rate in FAULT_RATES]


def test_availability_under_faults(benchmark):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)

    print_table(
        f"Seeded fault injection over {N_NODES}-leaf star "
        f"({N_QUERIES} queries, seed {SEED})",
        ["avail", "mean ms", "p95 ms", "retries", "drops"],
        [
            (f"{point['drop_rate']:.0%} drops",
             round(point["availability"], 3),
             round(point["mean_latency_ms"], 2),
             round(point["p95_latency_ms"], 2),
             point["retries"],
             point["fault_stats"]["drops"])
            for point in points
        ],
        note="availability = fraction of queries answered complete; "
             "the rest returned partial answers, none raised",
    )
    write_report(
        RESULTS_FILE, "faults",
        params={"nodes": N_NODES, "queries": N_QUERIES, "seed": SEED,
                "fault_rates": list(FAULT_RATES), "quick": QUICK,
                "retry_policy": dict(RETRIES)},
        metrics=points,
    )

    clean, light, heavy = points
    # Fault-free: nothing retried, nothing dropped, everything answered.
    assert clean["availability"] == 1.0
    assert clean["retries"] == 0
    assert clean["fault_stats"]["drops"] == 0
    # Light faults: retries absorb nearly everything.
    assert light["fault_stats"]["drops"] > 0
    assert light["availability"] >= 0.95
    # Heavy faults: the attempt budget saturates for some fan-outs, but
    # the system keeps answering (degraded, never raising).
    assert heavy["retries"] > light["retries"]
    assert heavy["availability"] >= 0.6
