"""Micro-benchmarks of the substrate engines (wall-clock, this machine).

Not a paper figure: these keep the building blocks honest -- XML
parsing/serialization throughput, XPath compilation and evaluation,
fragment merging, and full end-to-end cluster queries -- so performance
regressions in the substrates are visible independently of the
simulated experiments.
"""

import pytest

from benchmarks.reporting import write_report
from repro.service import (
    ParkingConfig,
    QueryWorkload,
    build_parking_document,
    type1_query,
    type3_query,
)
from repro.xmlkit import parse_fragment, serialize
from repro.xpath import compile_xpath

RESULTS_FILE = "BENCH_engine_micro.json"


@pytest.fixture(scope="module")
def _engine_report():
    """Collects every micro-benchmark's timings; writes the envelope
    once the module finishes (this file has no single aggregating
    test, so the report spans all of them)."""
    collected = {}
    yield collected
    metrics = {}
    for name, bench in sorted(collected.items()):
        stats = getattr(getattr(bench, "stats", None), "stats", None)
        if stats is None:
            continue
        metrics[name] = {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "rounds": getattr(stats, "rounds", len(stats.data)),
        }
    if metrics:
        write_report(RESULTS_FILE, "engine_micro",
                     params={"config": "paper_small"}, metrics=metrics)


@pytest.fixture(autouse=True)
def _collect_benchmark(request, benchmark, _engine_report):
    yield
    _engine_report[request.node.name] = benchmark


@pytest.fixture(scope="module")
def config():
    return ParkingConfig.paper_small()


@pytest.fixture(scope="module")
def document(config):
    return build_parking_document(config)


@pytest.fixture(scope="module")
def document_text(document):
    return serialize(document)


def test_xml_parse_paper_database(benchmark, document_text):
    benchmark(lambda: parse_fragment(document_text))


def test_xml_serialize_paper_database(benchmark, document):
    benchmark(lambda: serialize(document))


def test_xpath_compile_figure2_query(benchmark, config):
    query = type3_query(config, "Pittsburgh", "Oakland", "Shadyside", "1",
                        selection="available")
    from repro.xpath.parser import parse_cached

    def compile_fresh():
        parse_cached.cache_clear()
        compile_xpath(query)

    benchmark(compile_fresh)


def test_xpath_evaluate_type1(benchmark, config, document):
    query = compile_xpath(type1_query(config, "Pittsburgh", "Oakland", "7"))
    benchmark(lambda: query.select(document))


def test_xpath_evaluate_descendant_predicate(benchmark, document):
    query = compile_xpath(
        "/usRegion[@id='NE']//parkingSpace[available='yes'][price='0']")
    benchmark(lambda: query.select(document))


def test_local_information_extraction(benchmark, document):
    from repro.core import local_information

    neighborhood = next(document.iter("neighborhood"))
    benchmark(lambda: local_information(neighborhood))


def test_fragment_merge(benchmark, config, document):
    from repro.core import PartitionPlan, compile_pattern, run_qeg

    plan = PartitionPlan({"one": [(("usRegion", config.region),)]})
    db = plan.build_databases(document)["one"]
    pattern = compile_pattern(type1_query(config, "Pittsburgh", "Oakland",
                                          "1"))
    fragment = run_qeg(db, pattern).answer

    target = plan.build_databases(document)["one"]
    benchmark(lambda: target.store_fragment(fragment.copy()))


def test_cluster_query_end_to_end(benchmark, config, document):
    from repro.arch import hierarchical
    from repro.net import Cluster

    cluster = Cluster(document.copy(), hierarchical(config).plan)
    workload = QueryWorkload.qw_mix(config, seed=777)

    def one_query():
        cluster.query(workload.sample()[0])

    benchmark(one_query)


def test_message_encode_decode(benchmark, config, document):
    from repro.core import PartitionPlan, compile_pattern, run_qeg
    from repro.net import AnswerMessage, Message

    plan = PartitionPlan({"one": [(("usRegion", config.region),)]})
    db = plan.build_databases(document)["one"]
    pattern = compile_pattern(
        type1_query(config, "Pittsburgh", "Oakland", "1"))
    fragment = run_qeg(db, pattern).answer
    message = AnswerMessage(1, fragment=fragment)

    benchmark(lambda: Message.decode(message.encode()))
