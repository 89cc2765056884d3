"""The semantic cache on a jittered workload.

The fig10-style caching benchmarks control the hit ratio artificially;
this one earns it.  Clients re-issue the *same* queries with the
spelling and freshness jitter real templated clients produce --
whitespace, predicate order, ``timestamp > now - N`` sugar with N
drifting in [25, 30] -- against one live loopback cluster whose
scalar-answer cache keys by the freshness-stripped canonical form
(:mod:`repro.core.semcache`).

Claims proven into ``BENCH_semcache.json``:

* the cache's hits are >= 2x the stream's repeated spellings -- the
  most hits any cache keyed by exact query text could score on it;
* every answer equals the consistency-stripped query evaluated over the
  static document (scalar values, and fragment results compared
  unordered without data timestamps, as
  ``benchmarks/layers/oracle.py::StaticOracle`` does);
* hits skip the distributed gather: their median latency is below the
  misses'.

The fragment stream is posed at the root site, and its wire messages
are recorded.  ``REPRO_BENCH_QUICK=1`` shrinks the stream for smoke runs.
"""

import os
import random
import time

from benchmarks.conftest import print_table
from benchmarks.layers.oracle import StaticOracle
from benchmarks.reporting import write_report
from repro.arch import hierarchical
from repro.core.consistency import (
    rewrite_consistency_sugar,
    strip_consistency_predicates,
)
from repro.net import Cluster
from repro.service import ParkingConfig, build_parking_document, parking
from repro.xpath import Evaluator, parse

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: Full mode sizes the stream so cold misses are < 1% of the lookups.
N_SCALAR = 300 if QUICK else 3000
N_FRAGMENT = 30 if QUICK else 120
RESULTS_FILE = "BENCH_semcache.json"
#: The site owning the document root in a ``hierarchical`` plan.
ROOT_SITE = "site-0"

_EVALUATOR = Evaluator()


def _config():
    return ParkingConfig.tiny() if QUICK else ParkingConfig.paper_small()


def _bases(config):
    """A handful of 'cheap spaces in this block' scalar templates."""
    bases = []
    for city in config.city_names():
        for neighborhood in config.neighborhood_names():
            for block in config.block_ids()[:2]:
                bases.append(parking.type1_query(
                    config, city, neighborhood, block, selection="cheap"))
    return bases


def _jitter(base, rng):
    """One client-flavoured respelling of *base* (same semantics)."""
    predicates = ["available='yes'", "price='0'"]
    if rng.random() < 0.5:
        predicates.reverse()
    spelled = "".join(
        "[" + " " * rng.randrange(3) + p.replace("=", " = ", rng.randrange(2))
        + " " * rng.randrange(3) + "]"
        for p in predicates
    )
    query = base.replace("[available='yes'][price='0']", spelled)
    if rng.random() < 0.5:
        tolerance = 25 + round(rng.random() * 5, 1)
        query += f"[timestamp > now - {tolerance:g}]"
    return query


def _scalar_stream(config, count, seed):
    rng = random.Random(seed)
    bases = _bases(config)
    return [f"count({_jitter(rng.choice(bases), rng)})"
            for _ in range(count)]


def _fragment_stream(config, count, seed):
    rng = random.Random(seed)
    bases = [base.rsplit("/parkingSpace", 1)[0] for base in _bases(config)]
    return [_jitter(rng.choice(bases) + "/parkingSpace"
                    "[available='yes'][price='0']", rng)
            for _ in range(count)]


def _repeated_spellings(stream):
    """Queries whose exact text was already posed: the hits an
    exact-keyed cache could score at most."""
    return len(stream) - len(set(stream))


def _desugared(query):
    return rewrite_consistency_sugar(parse(query)).unparse()


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def _run():
    config = _config()
    document = build_parking_document(config)
    scalars = _scalar_stream(config, N_SCALAR, seed=31)
    fragments = _fragment_stream(config, N_FRAGMENT, seed=67)
    cluster = Cluster(document.copy(), hierarchical(config).plan)
    agents = list(cluster.agents.values())

    def hits():
        return sum(agent.driver.aggregates.stats["hits"] for agent in agents)

    wrong = []
    hit_latencies = []
    miss_latencies = []
    for query in scalars:
        before = hits()
        started = time.perf_counter()
        value = cluster.scalar(query, max_age=600)
        elapsed = time.perf_counter() - started
        (hit_latencies if hits() > before else miss_latencies).append(elapsed)
        expected = _EVALUATOR.evaluate(
            strip_consistency_predicates(parse(_desugared(query))), document)
        if value != expected:
            wrong.append(f"{query}: {value} != {expected}")

    oracle = StaticOracle(document)
    sent_before = cluster.network.traffic.messages
    for query in fragments:
        results, _site, _outcome = cluster.query(query, at_site=ROOT_SITE)
        wrong.extend(f"{query}: {problem}" for problem in oracle.verify(
            _desugared(query), None, oracle.digest(results)))
    fragment_messages = cluster.network.traffic.messages - sent_before

    cache = {
        key: sum(agent.driver.aggregates.stats[key] for agent in agents)
        for key in ("hits", "misses", "stale_rejects", "stores")
    }
    lookups = cache["hits"] + cache["misses"]
    return {
        "hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "cache": cache,
        "repeated_spellings": _repeated_spellings(scalars),
        "wrong_answers": wrong,
        "fragment_wire_messages": fragment_messages,
        "hit_p50_ms": _percentile(hit_latencies, 0.50) * 1000,
        "miss_p50_ms": _percentile(miss_latencies, 0.50) * 1000,
        "p99_ms": _percentile(hit_latencies + miss_latencies, 0.99) * 1000,
    }


def test_semantic_cache_hit_rate_and_latency(benchmark):
    run = benchmark.pedantic(_run, rounds=1, iterations=1)
    cache = run["cache"]

    print_table(
        f"Semantic cache keys ({N_SCALAR} jittered scalar queries, "
        f"{N_FRAGMENT} fragment lookups at the root)",
        ["hits", "repeated spellings", "hit p50 ms", "miss p50 ms",
         "fragment wire msgs"],
        [("semantic", cache["hits"], run["repeated_spellings"],
          run["hit_p50_ms"], run["miss_p50_ms"],
          run["fragment_wire_messages"])],
        note=f"wrong answers: {len(run['wrong_answers'])}",
    )
    write_report(
        RESULTS_FILE, "semcache",
        params={"scalar_queries": N_SCALAR, "fragment_queries": N_FRAGMENT,
                "quick": QUICK},
        metrics=dict(run, wrong_answers=len(run["wrong_answers"])),
    )

    # Every answer is the static document's.
    assert run["wrong_answers"] == []

    # The tentpole claim: >= 2x what exact-text keys could hit at most.
    assert run["hit_rate"] >= 0.5
    assert cache["hits"] >= 2 * run["repeated_spellings"]

    # Hits skip the distributed gather.
    assert run["hit_p50_ms"] < run["miss_p50_ms"]
