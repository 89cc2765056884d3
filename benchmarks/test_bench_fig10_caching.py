"""Figure 10: caching throughputs on the hierarchical architecture.

Paper configurations: no caching; caching with 0% hits (overhead only);
50% hits; 100% hits.  Findings to reproduce:

* caching induces minimal overhead (0%-hit ≈ no-caching);
* type 1/2 workloads are unaffected (their queries already run at the
  site holding all the data);
* type 3/4 throughput *drops* as the hit ratio rises: the few top-level
  sites stop forwarding (cheap) and start serving full answers
  (expensive), becoming the bottleneck;
* the realistic mix gains up to ~33%, because the otherwise idle
  top-level sites absorb load from the lower levels.

The hit ratio is controlled the way the paper's setup implies: before a
"miss" query, the entry site's cached fragments are evicted, so the
query must re-gather; "hit" queries find the cache warm.
"""

import random

from benchmarks.conftest import print_table, workload_suite
from benchmarks.reporting import write_report
from repro.arch import hierarchical
from repro.net import OAConfig

RESULTS_FILE = "BENCH_fig10_caching.json"


def _pre_query_evictor(sim, probability, seed):
    """Evict the entry site's cache before a query with *probability*."""
    rng = random.Random(seed)

    def pre_query(query, _query_type):
        if rng.random() < probability:
            entry = sim.architecture.entry_site(sim.cluster, query)
            sim.cluster.database(entry).evict_all_cached()

    return pre_query


def _run(config, document):
    configurations = [
        ("no-caching", OAConfig(cache_results=False), None),
        ("cache-0%hits", OAConfig(cache_results=True), 1.0),
        ("cache-50%hits", OAConfig(cache_results=True), 0.5),
        ("cache-100%hits", OAConfig(cache_results=True), 0.0),
    ]
    table = {}
    for name, workload in workload_suite(config):
        for label, oa_config, evict_probability in configurations:
            arch = hierarchical(config)
            from repro.sim import CostModel, SimulatedCluster
            from repro.service import UpdateWorkload

            sim = SimulatedCluster(document.copy(), arch,
                                   cost_model=CostModel(),
                                   oa_config=oa_config)
            pre_query = None
            if evict_probability is not None and evict_probability > 0:
                pre_query = _pre_query_evictor(sim, evict_probability,
                                               seed=hash((name, label)) % 997)
            metrics = sim.run(
                workload, n_clients=12, duration=15.0, warmup=4.0,
                update_workload=UpdateWorkload(config, seed=97),
                update_rate=100.0, pre_query=pre_query)
            table[(name, label)] = metrics.throughput
    return configurations, table


def test_figure10_caching_throughputs(benchmark, paper_config,
                                      paper_document):
    configurations, table = benchmark.pedantic(
        lambda: _run(paper_config, paper_document), rounds=1, iterations=1)

    labels = [label for label, _cfg, _p in configurations]
    rows = [
        (name, *(table[(name, label)] for label in labels))
        for name, _ in workload_suite(paper_config)
    ]
    print_table("Figure 10: caching throughputs (Architecture 4)",
                labels, rows,
                note="paper shape: 0%-hits ~ no-caching; QW-3/QW-4 drop "
                     "at 100% hits; QW-Mix gains up to ~33%")
    write_report(
        RESULTS_FILE, "fig10_caching",
        params={"architecture": "hierarchical",
                "configurations": labels},
        metrics={
            "throughput_qps": {
                f"{name}/{label}": value
                for (name, label), value in table.items()
            },
        },
    )

    t = table
    # Minimal overhead: caching with no hits within 25% of no caching.
    for name in ("QW-1", "QW-2", "QW-3", "QW-4", "QW-Mix"):
        assert t[(name, "cache-0%hits")] > 0.7 * t[(name, "no-caching")]

    # Type 1/2 unaffected by the hit ratio (queries already local).
    for name in ("QW-1", "QW-2"):
        low = min(t[(name, label)] for label in labels)
        high = max(t[(name, label)] for label in labels)
        assert high < 1.35 * low

    # Type 3/4: 100% hits concentrates work on the few top-level sites
    # and *reduces* throughput versus forwarding.
    for name in ("QW-3", "QW-4"):
        assert t[(name, "cache-100%hits")] < t[(name, "no-caching")]

    # The realistic mix benefits from caching.
    assert t[("QW-Mix", "cache-100%hits")] > t[("QW-Mix", "no-caching")]
