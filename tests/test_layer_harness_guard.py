"""The frozen layer harness still finds the program it measures.

``benchmarks/layers`` is never edited with the program: it imports
names such as ``repro.core.semcache.canonicalization_stats``, reads
counters, and wraps entry points by name (``spans.ENTRY_POINTS``, each
gather driver's ``send``/``send_many``).  Without this test a moved or
renamed name would show only in the harness's own self-test.
"""

from types import SimpleNamespace

from repro.arch import hierarchical
from repro.net import Cluster
from repro.service import ParkingConfig, build_parking_document, parking


def test_the_harness_imports_reads_and_wraps_a_cluster():
    from benchmarks.layers import harness, spans

    config = ParkingConfig.tiny()
    cluster = Cluster(build_parking_document(config),
                      hierarchical(config).plan)
    originals = [(owner, attribute, vars(owner)[attribute])
                 for _name, owner, attribute, _mode in spans.ENTRY_POINTS]
    query = parking.type1_query(
        config, config.city_names()[0], config.neighborhood_names()[0],
        config.block_ids()[0])
    with spans.tracing(cluster):
        assert all(vars(owner)[attribute] is not original
                   for owner, attribute, original in originals)
        _results, _site, outcome = cluster.query(query)
        assert outcome.complete
        cluster.scalar(f"count({query})")  # a scalar canonicalizes
    # Leaving checks every wrapper came off; so does this.
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original
    counters = harness._counters(
        SimpleNamespace(cluster=cluster, network=cluster.network))
    assert counters["canon.hits"] + counters["canon.misses"] > 0
    assert counters["gather.queries"] >= 1
