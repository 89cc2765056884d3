"""Adaptive rebalancing: max sustained QPS and tail latency, off vs on.

A zipf-skewed rollup workload aims 95% of its queries under one
top-level zone of a generated deployment, so one organizing agent
absorbs nearly the whole offered load while its peers idle.  With the
balancer **off** that site's guard is the cluster: the sustainable
rate is one site's capacity divided by its load share.  With the
balancer **on**, a warmup window feeds the per-path load trackers, one
tick detects the hot site and splits its fragment along the zone
boundary, and the same ladder climbs roughly ``1/share`` higher before
missing the SLO.

Per-site capacity is made real with a per-request service time the
bench gives every agent (``SERVICE_DELAY``, slept in ``handle_message``
and so inside the TCP handler's hold of the site guard; the sleep
releases the GIL): every site behaves like its own machine instead of
sharing one interpreter's CPU pool, which is the regime where moving
ownership moves capacity.

Measured per mode:

* **max sustained QPS** -- ladder of open-loop windows (seeded Poisson
  arrivals, latency charged from scheduled arrival); a rate is
  sustained when >= 95% of offered queries complete, none error, and
  p99 stays under the SLO; the climb stops after two consecutive
  misses;
* **probe p99** -- one fixed-rate window past the hot site's solo
  capacity, where the off-mode backlog dominates the tail.

Results go to ``BENCH_rebalance.json``.  ``REPRO_BENCH_QUICK=1``
shrinks the ladder and windows for CI.  ``REPRO_BENCH_STRESS=1``
additionally runs the million-element scenario tier
(``BENCH_rebalance_stress.json``): the PR 9 scale config fed through
the same open-loop generator with the balancer live.
"""

import os
import time

import pytest

from benchmarks.conftest import print_table
from benchmarks.reporting import write_report
from repro.net import BreakerPolicy, OAConfig, RetryPolicy
from repro.net.tcpruntime import TcpCluster
from repro.rebalance import RebalanceConfig
from repro.service.scenarios import (
    ScenarioConfig,
    ScenarioWorkload,
    build_document,
    build_plan,
    million_config,
)
from repro.service.workload import run_open_loop

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
STRESS = bool(os.environ.get("REPRO_BENCH_STRESS"))

#: fanout=3 gives the hot zone three splittable sub-zones, so one tick
#: can shed two of them (to the two idlest peers) and the hot site's
#: share drops from ~0.97 to ~0.35.
CONFIG = ScenarioConfig(fanout=3, depth=2, sensors_per_group=15,
                        site_depth=1, seed=7)
SKEW = 0.95
SERVICE_DELAY = 0.025
SLO_P99_MS = 300.0
DURATION = 1.2 if QUICK else 2.5
WARMUP_QPS = 25.0
WARMUP_S = 1.2
DRAIN_TIMEOUT = 30.0
MAX_PENDING = 4096
LADDER = [25, 50, 75] if QUICK else [20, 30, 45, 60, 75, 90]
PROBE_QPS = 40.0
MIN_GAIN = 1.5 if QUICK else 2.0
RESULTS_FILE = "BENCH_rebalance.json"
STRESS_RESULTS_FILE = "BENCH_rebalance_stress.json"


def _oa_config():
    # Fragment caching off: a warm site database would answer the
    # skewed suite's handful of distinct rollups without any site ever
    # being hot -- this bench is about the balancer.
    return OAConfig(
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0,
                                 max_delay=0.0, jitter=0.0,
                                 sleep=lambda seconds: None),
        breaker=BreakerPolicy(failure_threshold=8, reset_timeout=0.05),
        cache_results=False)


def _with_service_time(agent):
    """Sleep ``SERVICE_DELAY`` before *agent* handles each message.

    The TCP handler calls ``handle_message`` holding the site guard, so
    the sleep holds it too: one site serves one request at a time at
    this pace, while the sleep lets the other sites' threads run.  The
    TCP runtime has no ``service_delay`` option of its own: only this
    bench needs a service time.
    """
    handle_message = agent.handle_message

    def slow_handle_message(message):
        time.sleep(SERVICE_DELAY)
        return handle_message(message)

    agent.handle_message = slow_handle_message


def _workload(seed):
    return ScenarioWorkload(CONFIG, shape="sum", skew=SKEW, seed=seed)


def _one_window(balanced, rate, seed):
    """A fresh cluster: warmup (+ one tick when balanced), one window."""
    subsystems = ([RebalanceConfig(min_queries=16, overload_ratio=1.5)]
                  if balanced else [])
    with TcpCluster(build_document(CONFIG), build_plan(CONFIG),
                    oa_config=_oa_config(), max_pending=MAX_PENDING,
                    subsystems=subsystems) as tcp:
        for agent in tcp.cluster.agents.values():
            _with_service_time(agent)
        run_open_loop(tcp.cluster, _workload(seed=11),
                      target_qps=WARMUP_QPS, duration=WARMUP_S,
                      seed=11, drain_timeout=DRAIN_TIMEOUT)
        moves = (tcp.cluster.subsystem("rebalance").tick()
                 if balanced else [])
        result = run_open_loop(tcp.cluster, _workload(seed=seed),
                               target_qps=rate, duration=DURATION,
                               seed=seed, drain_timeout=DRAIN_TIMEOUT)
    return result, moves


def _climb(balanced):
    """Climb the shared ladder; stop after two consecutive misses."""
    best = 0.0
    rungs = []
    moved = 0
    misses = 0
    for rate in LADDER:
        result, moves = _one_window(balanced, rate, seed=3)
        moved = max(moved, len(moves))
        p99_ms = result.percentile(0.99) * 1000
        ok = (result.sustained and result.errors == 0
              and p99_ms <= SLO_P99_MS)
        rungs.append({**result.summary(), "slo_ok": ok,
                      "migrations": len(moves)})
        if ok:
            best = rate
            misses = 0
        else:
            misses += 1
            if misses >= 2:
                break
    return {"max_sustained_qps": best, "rungs": rungs,
            "migrations": moved}


def _run():
    off = _climb(balanced=False)
    on = _climb(balanced=True)
    probe_off, _ = _one_window(balanced=False, rate=PROBE_QPS, seed=5)
    probe_on, probe_moves = _one_window(balanced=True, rate=PROBE_QPS,
                                        seed=5)
    p99_off = probe_off.percentile(0.99) * 1000
    p99_on = probe_on.percentile(0.99) * 1000
    qps_gain = (on["max_sustained_qps"] / off["max_sustained_qps"]
                if off["max_sustained_qps"] else float("inf"))
    p99_gain = p99_off / p99_on if p99_on else 0.0
    return {
        "off": off,
        "on": on,
        "probe": {
            "target_qps": PROBE_QPS,
            "migrations": len(probe_moves),
            "off": probe_off.summary(),
            "on": probe_on.summary(),
        },
        "qps_gain": round(qps_gain, 2),
        "p99_gain": round(p99_gain, 2),
        "slo_p99_ms": SLO_P99_MS,
    }


def test_rebalancing_gain(benchmark):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    for mode in ("off", "on"):
        for rung in outcome[mode]["rungs"]:
            rows.append((
                f"{mode}@{rung['target_qps']:.0f}",
                rung["achieved_qps"],
                rung["latency_ms"]["p50"],
                rung["latency_ms"]["p99"],
                "yes" if rung["slo_ok"] else "no",
            ))
    print_table(
        f"Zipf-skewed rollups (skew {SKEW}), {SERVICE_DELAY * 1000:.0f}ms "
        f"per-site service time (sustained = completion >= 95%, no "
        f"errors, p99 <= {SLO_P99_MS:.0f}ms)",
        ["achieved", "p50 (ms)", "p99 (ms)", "sustained"],
        rows,
        note=(f"max sustained QPS: off "
              f"{outcome['off']['max_sustained_qps']:.0f}, on "
              f"{outcome['on']['max_sustained_qps']:.0f} "
              f"({outcome['qps_gain']:.1f}x); probe p99 @ "
              f"{PROBE_QPS:.0f} qps: "
              f"{outcome['probe']['off']['latency_ms']['p99']:.0f}ms -> "
              f"{outcome['probe']['on']['latency_ms']['p99']:.0f}ms "
              f"({outcome['p99_gain']:.1f}x)"),
    )
    write_report(
        RESULTS_FILE, "rebalance",
        params={"config": vars(CONFIG), "skew": SKEW,
                "service_delay_s": SERVICE_DELAY,
                "slo_p99_ms": SLO_P99_MS, "duration_s": DURATION,
                "warmup_qps": WARMUP_QPS, "ladder": LADDER,
                "probe_qps": PROBE_QPS, "max_pending": MAX_PENDING,
                "quick": QUICK},
        metrics=outcome,
    )

    # Both modes must hold at least the bottom rung.
    assert outcome["off"]["max_sustained_qps"] > 0
    assert outcome["on"]["max_sustained_qps"] > 0
    # The balancer actually migrated in the balanced runs.
    assert outcome["on"]["migrations"] >= 1
    assert outcome["probe"]["migrations"] >= 1
    # Migration never costs a query: every balanced window completed
    # everything it offered, including the windows climbing past the
    # unbalanced ceiling.
    for rung in outcome["on"]["rungs"]:
        assert rung["errors"] == 0 and rung["dropped"] == 0
    assert outcome["probe"]["on"]["errors"] == 0
    assert outcome["probe"]["on"]["dropped"] == 0
    # The headline: rebalancing buys >= MIN_GAIN in sustained rate, or
    # >= MIN_GAIN lower tail latency past the solo-site ceiling.
    assert outcome["qps_gain"] >= MIN_GAIN or \
        outcome["p99_gain"] >= MIN_GAIN


@pytest.mark.skipif(not STRESS, reason="set REPRO_BENCH_STRESS=1 for "
                    "the million-element scenario tier")
def test_rebalance_stress_million(benchmark):
    """The PR 9 scale scenario through the open-loop generator.

    ~1.02M elements over 73 in-process sites, a zipf-skewed
    update-heavy stream (the paper's ingest shape) plus leaf-zone
    rollups, with the balancer live between windows.  The bar is
    survival, not speed: zero errors, zero drops, and a balancer tick
    that runs against million-scale trackers.
    """
    from repro.net import Cluster

    config = million_config()
    cluster = Cluster(build_document(config), build_plan(config),
                      oa_config=_oa_config(),
                      subsystems=[RebalanceConfig(min_queries=16,
                                                  overload_ratio=1.5)])

    def _stress():
        workload = ScenarioWorkload(config, shape="sum", skew=SKEW,
                                    update_fraction=0.98, pin_depth=3,
                                    seed=5)
        first = run_open_loop(cluster, workload, target_qps=150.0,
                              duration=8.0, seed=9, drain_timeout=120.0)
        moves = cluster.subsystem("rebalance").tick()
        second = run_open_loop(cluster, workload, target_qps=150.0,
                               duration=8.0, seed=10,
                               drain_timeout=120.0)
        return {"first": first.summary(), "second": second.summary(),
                "migrations": len(moves),
                "balancer": cluster.subsystem("rebalance").metrics()}

    outcome = benchmark.pedantic(_stress, rounds=1, iterations=1)
    write_report(
        STRESS_RESULTS_FILE, "rebalance-stress",
        params={"config": vars(config), "skew": SKEW,
                "update_fraction": 0.98, "target_qps": 150.0,
                "duration_s": 8.0},
        metrics=outcome,
    )
    for window in ("first", "second"):
        assert outcome[window]["errors"] == 0
        assert outcome[window]["dropped"] == 0
        assert outcome[window]["sustained"]
