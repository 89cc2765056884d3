"""Threaded subquery fan-out: one gather round costs one WAN RTT.

A 16-subquery wildcard gather over a star deployment (one hub owning
the region, each node owned by its own site) is timed on the real TCP
runtime twice: with the default sequential dispatch and with the
opt-in threaded executor (``executor="threaded"``).  A latency
interceptor injects a WAN-scale delay per request, so the sequential
gather pays 16 round-trips where the threaded one pays roughly one --
the case threads are kept for.  Without such a wait every site shares
one interpreter, and worker threads only take turns on the GIL.  The
answers must be byte-identical, and the connection pool must serve the
second query without dialing a single new socket.

Results are written to ``BENCH_fanout.json`` so CI can archive the
numbers.  ``REPRO_BENCH_QUICK=1`` shrinks the injected delay and skips
repetitions for CI smoke runs.
"""

import os
import time

from benchmarks.conftest import print_table
from benchmarks.reporting import write_report
from repro.core import PartitionPlan
from repro.net import OAConfig
from repro.net.tcpruntime import TcpCluster
from repro.xmlkit import Element, canonical_form

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_NODES = 16
WAN_DELAY = 0.010 if QUICK else 0.030
REPETITIONS = 1 if QUICK else 3
QUERY = "/region[@id='R']/node"
RESULTS_FILE = "BENCH_fanout.json"


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


def _timed_gather(executor):
    """Fresh TCP cluster; returns (best wall time, answers, tcp stats)."""
    oa_config = OAConfig(cache_results=False, executor=executor)
    with TcpCluster(_star_document(), _star_plan(), service="star",
                    oa_config=oa_config) as tcp:
        tcp.network.interceptors.append(
            lambda src, dst, message: time.sleep(WAN_DELAY))
        hub = tcp.cluster.agents["hub"]
        best = float("inf")
        results = None
        for _ in range(REPETITIONS):
            started = time.perf_counter()
            results, _outcome = hub.answer_user_query(QUERY)
            best = min(best, time.perf_counter() - started)
        answers = sorted(canonical_form(_scrubbed(r)) for r in results)
        stats = {
            "max_fanout": hub.driver.stats["max_fanout"],
            "connects_first": tcp.network.pool_stats["connects"],
        }
        # One more gather: every connection must come from the pool.
        hub.answer_user_query(QUERY)
        stats["connects_second"] = tcp.network.pool_stats["connects"]
        stats["reuses"] = tcp.network.pool_stats["reuses"]
        return best, answers, stats


def _scrubbed(element):
    clone = element.copy()
    for node in clone.iter():
        node.delete_attribute("timestamp")
    return clone


def _run():
    serial_time, serial_answers, _ = _timed_gather("serial")
    parallel_time, parallel_answers, stats = _timed_gather("threaded")
    return {
        "serial": serial_time,
        "parallel": parallel_time,
        "speedup": serial_time / parallel_time,
        "identical": serial_answers == parallel_answers,
        "n_answers": len(parallel_answers),
        **stats,
    }


def test_parallel_fanout_speedup(benchmark):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)

    print_table(
        f"Fan-out of {N_NODES} subqueries over TCP "
        f"({WAN_DELAY * 1000:.0f}ms injected WAN delay)",
        ["time (s)", "speedup"],
        [
            ("sequential", outcome["serial"], 1.0),
            ("parallel+pooled", outcome["parallel"],
             round(outcome["speedup"], 1)),
        ],
        note=f"answers identical: {outcome['identical']}; "
             f"pool reuses: {outcome['reuses']}",
    )
    write_report(
        RESULTS_FILE, "fanout",
        params={"nodes": N_NODES, "wan_delay_s": WAN_DELAY,
                "repetitions": REPETITIONS, "query": QUERY,
                "quick": QUICK},
        metrics=outcome,
    )

    assert outcome["n_answers"] == N_NODES
    assert outcome["identical"], "answers differ across executors"
    assert outcome["max_fanout"] == N_NODES
    # The tentpole claim: one round = one RTT, not N.
    assert outcome["speedup"] >= 3.0
    # The second gather dials no new sockets: all 16 come from the pool.
    assert outcome["connects_second"] == outcome["connects_first"]
    assert outcome["reuses"] >= N_NODES
