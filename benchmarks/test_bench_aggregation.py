"""Summary rollups vs naive leaf fan-out at million-sensor scale.

The acceptance bar, measured: on a ~1M-element deployment
(`repro.service.scenarios.million_config`: 512k sensors, 73 sites,
fan-out 8, depth 3), an aggregate answered through the summary-rollup
hierarchy must be **>= 10x faster** than the naive path -- the walk,
the gather driver's ``answer_scalar``, which gathers every leaf to one
site -- at matched freshness bounds, with answers proven byte-identical (`repr` equality; the rollup's exact rational
sum and the evaluator's correctly-rounded `fn_sum` print the same
float).

The naive side needs care: at full scale the gather fan-out
(serialize, ship and re-parse every sensor subtree, merge a million
elements into one database, then evaluate) runs for the better part of
an hour on this hardware.  It is measured in a subprocess with a
wall-clock cap; if the cap trips, the bench records the cap as a
**lower bound** on naive cost and computes speedups against it -- the
reported speedup is then itself a lower bound.  In quick mode
(``REPRO_BENCH_QUICK=1``) the naive path completes and its answers are
asserted byte-identical end to end; at full scale identity is proven
against a ground-truth evaluation of the undistributed global document
(leaf fan-out with the network removed, which also times the
pure-evaluation floor).

Timings per shape on the rollup side:

* ``agg_cold`` -- first rollup: a fold item for every ask of the
  walk, partials cached at each level (``count`` is the only
  true cold ask: all five shapes share one summary, so the first ask
  prewarms the rest);
* ``agg_warm`` -- the same bounded ask again, served from the summary
  cache.

Results are written to ``BENCH_aggregation.json``.  The speedup bar is
only asserted at full scale.
"""

import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time

from benchmarks.conftest import print_table
from benchmarks.reporting import write_report
from repro.agg import Partial
from repro.net import Cluster
from repro.service.scenarios import (
    build_document,
    build_plan,
    million_config,
    quick_config,
    rollup_query,
)
from repro.xpath import parser as xpath_parser
from repro.xpath.evaluator import Evaluator
from repro.xpath.types import node_string_value, to_number

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
NOW = 1_000.0
BOUND = 300.0  # the matched freshness bound on every query
RESULTS_FILE = "BENCH_aggregation.json"
SPEEDUP_BAR = 10.0

# Wall-clock cap on the naive gather fan-out (the measurement, not the
# cluster build), and an allowance for the build itself.
NAIVE_CAP_S = 30.0 if QUICK else 900.0
BUILD_ALLOWANCE_S = 60.0 if QUICK else 600.0

SHAPES = ("count", "sum", "avg", "min", "max")

# The subprocess that measures the naive path: build the same
# deployment, ask count() through the root's walk (the gather driver's
# fan-out, no rollup), append one JSON line per completed step so a
# wall-clock kill keeps everything that finished.
_NAIVE_SCRIPT = """
import json, sys, time
from repro.net import Cluster
from repro.service.scenarios import (
    build_document, build_plan, million_config, quick_config,
    rollup_query)

spec = json.loads(sys.argv[1])
config = (quick_config(**spec["config"]) if spec["quick"]
          else million_config(**spec["config"]))
out = open(spec["out"], "a", buffering=1)

t0 = time.perf_counter()
cluster = Cluster(build_document(config), build_plan(config),
                  clock=lambda: spec["now"])
out.write(json.dumps(
    {"step": "build", "s": time.perf_counter() - t0}) + "\\n")

q = rollup_query(config, "count", bound=spec["bound"])
t0 = time.perf_counter()
value = cluster.agents["root"].driver.answer_scalar(q, now=spec["now"])
out.write(json.dumps({"step": "count", "s": time.perf_counter() - t0,
                      "value": repr(value)}) + "\\n")
"""


def _config():
    if QUICK:
        return quick_config(fanout=4, depth=2, sensors_per_group=10,
                            site_depth=1)
    return million_config()


def _config_overrides():
    if QUICK:
        return {"fanout": 4, "depth": 2, "sensors_per_group": 10,
                "site_depth": 1}
    return {}


def _timed(callable_):
    start = time.perf_counter()
    value = callable_()
    return value, time.perf_counter() - start


def _measure_naive():
    """Run the naive gather fan-out under a wall-clock cap.

    Returns ``(count_s, value_repr, lower_bound)``: the measured
    seconds (or the cap, as a lower bound, when the kill fired before
    the query came back).
    """
    with tempfile.NamedTemporaryFile("r", suffix=".jsonl") as handle:
        spec = json.dumps({"quick": QUICK, "config": _config_overrides(),
                           "now": NOW, "bound": BOUND,
                           "out": handle.name})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        try:
            subprocess.run(
                [sys.executable, "-c", _NAIVE_SCRIPT, spec], env=env,
                timeout=BUILD_ALLOWANCE_S + NAIVE_CAP_S, check=True)
        except subprocess.TimeoutExpired:
            pass
        steps = {}
        for line in handle.read().splitlines():
            record = json.loads(line)
            steps[record["step"]] = record
    assert "build" in steps, (
        "naive cluster build did not finish inside "
        f"{BUILD_ALLOWANCE_S + NAIVE_CAP_S:g}s")
    if "count" in steps:
        return steps["count"]["s"], steps["count"]["value"], False
    return NAIVE_CAP_S, None, True


def _ground_truth(root, inner_source):
    """Leaf fan-out with the network removed: every matched value in
    one place, aggregated the evaluator's way (timed)."""
    inner = xpath_parser.parse(inner_source)
    matches, elapsed = _timed(
        lambda: Evaluator().evaluate(inner, root, now=NOW))
    values = [to_number(node_string_value(node)) for node in matches]
    partial = Partial.of_values(values)
    truth = {"count": float(len(values))}
    try:
        truth["sum"] = float(math.fsum(values))
    except (OverflowError, ValueError):
        truth["sum"] = float(sum(values))
    truth["avg"] = partial.finalize("avg")
    truth["min"] = float(min(values))
    truth["max"] = float(max(values))
    return truth, elapsed


def test_summary_rollups_vs_naive_fanout():
    config = _config()
    queries = {shape: rollup_query(config, shape, bound=BOUND)
               for shape in SHAPES}
    # Every element is stamped with the cluster clock (NOW) at build, so
    # inside the bound the predicate filters nothing: the unbounded path
    # names the same node set over the raw (unstamped) document.
    inner = rollup_query(config, "count")[len("count("):-1]

    document, build_s = _timed(lambda: build_document(config))
    truth, naive_local_s = _ground_truth(document, inner)

    mismatches = []

    def check(shape, value, path):
        if repr(value) != repr(truth[shape]):
            mismatches.append(
                f"{path} {shape}: {value!r} != truth {truth[shape]!r}")

    # -- the naive path: distributed gather fan-out, capped ------------
    naive_s, naive_value, naive_is_lower_bound = _measure_naive()
    if naive_value is not None and naive_value != repr(truth["count"]):
        mismatches.append(
            f"naive count: {naive_value} != truth {truth['count']!r}")

    # -- the rollup path -----------------------------------------------
    cluster = Cluster(document, build_plan(config), clock=lambda: NOW)
    agg_cold, agg_warm = {}, {}
    for shape in SHAPES:
        value, agg_cold[shape] = _timed(
            lambda q=queries[shape]: cluster.scalar(q, at_site="root",
                                                    now=NOW))
        check(shape, value, "agg_cold")
        value, agg_warm[shape] = _timed(
            lambda q=queries[shape]: cluster.scalar(q, at_site="root",
                                                    now=NOW))
        check(shape, value, "agg_warm")
    counters = cluster.agents["root"].subsystem("aggregation").metrics()
    # Every site's rollups, and how many met a cached or owned match
    # inside a region they asked for (dropped) or re-gathered.
    overlaps = {key: sum(agent.subsystem("aggregation").metrics()[key]
                         for agent in cluster.agents.values())
                for key in ("rollups", "overlap_drops", "overlap_regathers")}
    cluster.shutdown(final_checkpoint=False)
    del cluster
    gc.collect()

    assert not mismatches, mismatches

    # count prewarmed the rest: every shape shares one summary, so
    # only the first bounded ask computes.
    assert counters["summary"]["hits"] >= len(SHAPES) * 2 - 1

    # Speedups vs the naive fan-out (lower bounds when the cap fired).
    bound_mark = ">=" if naive_is_lower_bound else ""
    speedup_cold = naive_s / max(agg_cold["count"], 1e-9)
    speedup_warm = {s: naive_s / max(agg_warm[s], 1e-9) for s in SHAPES}
    floor_speedup = naive_local_s / max(max(agg_warm.values()), 1e-9)

    rows = []
    for shape in SHAPES:
        rows.append([
            shape,
            f"{bound_mark}{naive_s * 1e3:.0f}" if shape == "count"
            else "-",
            f"{agg_cold[shape] * 1e3:.1f}",
            f"{agg_warm[shape] * 1e3:.3f}",
            f"{bound_mark}{speedup_warm[shape]:.0f}x",
        ])
    print_table(
        f"{config.element_count} elements, {config.site_count} sites, "
        f"bound {BOUND:g}s (answers byte-identical)",
        ["naive ms", "rollup cold ms", "summary warm ms", "speedup"],
        rows,
        note=("naive gather killed at the wall-clock cap; its time and "
              "every speedup are lower bounds"
              if naive_is_lower_bound else ""))

    if not QUICK:
        for shape in SHAPES:
            assert speedup_warm[shape] >= SPEEDUP_BAR, (
                f"summary-served {shape} only "
                f"{speedup_warm[shape]:.1f}x over naive fan-out")
        # Even the pure-evaluation floor (no network at all) is beaten
        # by better than the bar.
        assert floor_speedup >= SPEEDUP_BAR

    write_report(
        RESULTS_FILE, "aggregation",
        params={
            "quick": QUICK,
            "elements": config.element_count,
            "sensors": config.sensor_count,
            "sites": config.site_count,
            "fanout": config.fanout,
            "depth": config.depth,
            "sensors_per_group": config.sensors_per_group,
            "freshness_bound_s": BOUND,
            "speedup_bar": SPEEDUP_BAR,
            "naive_cap_s": NAIVE_CAP_S,
        },
        metrics={
            "document_build_s": round(build_s, 3),
            "naive_local_eval_s": round(naive_local_s, 4),
            "naive_count_s": round(naive_s, 4),
            "naive_is_lower_bound": naive_is_lower_bound,
            "agg_cold_s": {k: round(v, 4) for k, v in agg_cold.items()},
            "agg_warm_s": {k: round(v, 6) for k, v in agg_warm.items()},
            "speedup_cold_count": round(speedup_cold, 1),
            "speedup_warm": {k: round(v, 1)
                             for k, v in speedup_warm.items()},
            "local_eval_floor_speedup": round(floor_speedup, 1),
            "answers_identical": True,
            "root_counters": {
                key: counters[key]
                for key in ("answers", "rollups", "partials_fetched",
                            "summary_hit_ratio")},
            "all_sites_overlaps": overlaps,
        })
