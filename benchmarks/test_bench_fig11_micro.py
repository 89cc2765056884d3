"""Figure 11: micro-benchmarks of query processing time.

Paper experiment: a type-1 query is artificially routed to the OA
owning the county / city / neighborhood node, under three settings --
small database with naive XSLT creation, small database with fast XSLT
creation, and large (8x) database with fast creation.  Findings:

* routing directly to the data's site cuts total processing time by
  over 50% versus entering at the county;
* naive XSLT creation dominates total time; direct (fast) creation
  halves the total;
* the 8x database increases per-node processing by less than 20%.

Reproduced in two layers: (a) real wall-clock measurements of the live
QEG compile -- naive creation is ``_compile`` of a text no memo holds,
fast creation the shape bind a compile-memo text miss costs -- and its
walk, and (b) the Figure 11 breakdown regenerated from the cost model
over real query traces.
"""

import time

from benchmarks.conftest import print_table
from benchmarks.reporting import write_report
from repro.arch import hierarchical
from repro.net import OAConfig
from repro.service import ParkingConfig, build_parking_document, type1_query
from repro.sim import CostModel, SimulatedCluster

RESULTS_FILE = "BENCH_fig11_micro.json"


# ----------------------------------------------------------------------
# (a) Real engine measurements
# ----------------------------------------------------------------------
def _site_db(config, document):
    from repro.core import PartitionPlan

    plan = PartitionPlan({"one": [(("usRegion", config.region),)]})
    return plan.partition(document)[1]["one"]


def _type1_texts(config):
    return [type1_query(config, "Pittsburgh", "Oakland", block)
            for block in config.block_ids()]


def test_engine_naive_codegen(benchmark, paper_config):
    """Naive creation: parse, canonicalize and itemize each text afresh."""
    from repro.core import HierarchySchema
    from repro.core.qeg import _compile

    document = build_parking_document(paper_config)
    schema = HierarchySchema.from_document(document)
    query = type1_query(paper_config, "Pittsburgh", "Oakland", "1")
    benchmark(lambda: _compile(query, schema))


def test_engine_fast_codegen(benchmark, paper_config):
    """Fast creation: a new text of a known shape binds its literals
    into the shape's template, as a compile-memo text miss does."""
    from repro.core import HierarchySchema, compile_pattern
    from repro.core.qeg import _bind_shape

    document = build_parking_document(paper_config)
    schema = HierarchySchema.from_document(document)
    texts = _type1_texts(paper_config)
    compile_pattern(texts[0], schema=schema)  # builds the shape's template
    memo = schema.compiled_patterns
    state = {"index": 0}

    def create():
        text = texts[state["index"] % len(texts)]
        state["index"] += 1
        _bind_shape(text, memo, schema)

    benchmark(create)


def test_engine_qeg_execution_small(benchmark, paper_config):
    from repro.core import HierarchySchema, compile_pattern, run_qeg

    document = build_parking_document(paper_config)
    db = _site_db(paper_config, document)
    schema = HierarchySchema.from_document(document)
    pattern = compile_pattern(
        type1_query(paper_config, "Pittsburgh", "Oakland", "1"),
        schema=schema)
    benchmark(lambda: run_qeg(db, pattern))


def test_engine_qeg_execution_large(benchmark):
    from repro.core import HierarchySchema, compile_pattern, run_qeg

    config = ParkingConfig.paper_large()
    document = build_parking_document(config)
    db = _site_db(config, document)
    schema = HierarchySchema.from_document(document)
    pattern = compile_pattern(
        type1_query(config, "Pittsburgh", "Oakland", "1"), schema=schema)
    benchmark(lambda: run_qeg(db, pattern))


def test_fast_creation_saves_half(benchmark, paper_config):
    """The headline Section 4 claim, on this repository's own engine."""
    from repro.core import HierarchySchema, compile_pattern
    from repro.core.qeg import _bind_shape, _compile

    document = build_parking_document(paper_config)
    schema = HierarchySchema.from_document(document)
    texts = _type1_texts(paper_config)

    def naive_round():
        for text in texts:
            _compile(text, schema)

    benchmark.pedantic(naive_round, rounds=1, iterations=1)
    started = time.perf_counter()
    naive_round()
    naive_cost = time.perf_counter() - started

    compile_pattern(texts[0], schema=schema)
    memo = schema.compiled_patterns
    started = time.perf_counter()
    for text in texts:
        _bind_shape(text, memo, schema)
    fast_cost = time.perf_counter() - started

    print(f"\nnaive creation: {1000 * naive_cost / len(texts):.3f} ms; "
          f"fast creation: {1000 * fast_cost / len(texts):.4f} ms "
          f"({naive_cost / fast_cost:.1f}x)")
    assert fast_cost < naive_cost / 2


# ----------------------------------------------------------------------
# (b) The Figure 11 breakdown from the cost model
# ----------------------------------------------------------------------
def _chain_latency(node, cost, fast):
    """Latency of a trace chain with empty queues (children parallel)."""
    service = cost.query_service(0, fast=fast, messages=node.messages,
                                 forwarded=bool(node.children))
    if not node.children:
        return service
    return service + max(
        2 * cost.network_latency + _chain_latency(child, cost, fast)
        for child in node.children
    )


def _routed_total(config, document, entry_level, fast, cost):
    """Total processing time of a type-1 query entered at *entry_level*."""
    needed_sites = (len(config.city_names())
                    * len(config.neighborhood_names())
                    + len(config.city_names()) + 1)
    sim = SimulatedCluster(document.copy(),
                           hierarchical(config, n_sites=needed_sites),
                           oa_config=OAConfig(cache_results=False),
                           cost_model=cost, fast_codegen=fast)
    query = type1_query(config, "Pittsburgh", "Oakland", "1")
    owner_of = sim.cluster.owner_map
    level_paths = {
        "county": (("usRegion", config.region), ("state", config.state),
                   ("county", config.county)),
        "city": (("usRegion", config.region), ("state", config.state),
                 ("county", config.county), ("city", "Pittsburgh")),
        "neighborhood": (("usRegion", config.region),
                         ("state", config.state),
                         ("county", config.county), ("city", "Pittsburgh"),
                         ("neighborhood", "Oakland")),
    }
    entry = owner_of[level_paths[entry_level]]
    _results, trace = sim.execute_query(query, entry)

    # Components per the cost model, summed over the chain.
    def components(node):
        forwarded = bool(node.children)
        breakdown = cost.breakdown(
            sim.cluster.database(node.site).size(), fast=fast,
            messages=node.messages)
        if forwarded:
            breakdown["create"] *= cost.forward_factor
            breakdown["execute"] *= cost.forward_factor
        for child in node.children:
            child_parts = components(child)
            for key, value in child_parts.items():
                breakdown[key] = breakdown.get(key, 0) + value
        return breakdown

    parts = components(trace)
    parts["total"] = sum(parts.values())
    return parts


def test_figure11_breakdown(benchmark, paper_config):
    small = build_parking_document(paper_config)
    large_config = ParkingConfig.paper_large()
    large = build_parking_document(large_config)
    cost = CostModel()

    def run():
        table = {}
        for label, config, document, fast in (
            ("small+naive", paper_config, small, False),
            ("small+fast", paper_config, small, True),
            ("large+fast", large_config, large, True),
        ):
            for level in ("county", "city", "neighborhood"):
                table[(label, level)] = _routed_total(
                    config, document, level, fast, cost)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label in ("small+naive", "small+fast", "large+fast"):
        for level in ("county", "city", "neighborhood"):
            parts = table[(label, level)]
            rows.append((
                f"{label} @ {level}",
                1000 * parts["create"],
                1000 * parts["execute"],
                1000 * parts["communication"],
                1000 * parts["rest"],
                1000 * parts["total"],
            ))
    print_table("Figure 11: processing time breakdown (ms)",
                ["create", "execute", "comm", "rest", "total"], rows,
                note="paper shape: direct routing >50% cheaper; fast "
                     "creation >50% cheaper; 8x data < +20% execute")
    write_report(
        RESULTS_FILE, "fig11_micro",
        params={"settings": ["small+naive", "small+fast", "large+fast"],
                "entry_levels": ["county", "city", "neighborhood"]},
        metrics={
            f"{label} @ {level}": {
                part: round(1000 * value, 4)
                for part, value in table[(label, level)].items()
            }
            for label in ("small+naive", "small+fast", "large+fast")
            for level in ("county", "city", "neighborhood")
        },
    )

    # Direct routing saves over ~half versus entering at the county.
    for label in ("small+naive", "small+fast", "large+fast"):
        county = table[(label, "county")]["total"]
        direct = table[(label, "neighborhood")]["total"]
        assert direct < 0.65 * county

    # Fast creation halves total time at every level (naive creation
    # dominates, as the paper observes).
    for level in ("county", "city", "neighborhood"):
        naive = table[("small+naive", level)]["total"]
        fast = table[("small+fast", level)]["total"]
        assert table[("small+naive", level)]["create"] > 0.4 * naive
        assert fast < 0.55 * naive

    # The 8x database grows per-query execution by < 25%.
    for level in ("county", "city", "neighborhood"):
        small_exec = table[("small+fast", level)]["execute"]
        large_exec = table[("large+fast", level)]["execute"]
        assert large_exec < 1.25 * small_exec
