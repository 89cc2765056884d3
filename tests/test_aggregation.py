"""Hierarchical aggregation: summaries, rollups, derived sensors.

The tentpole end to end: aggregate queries answered from mergeable
partial aggregates instead of leaf fan-out; summaries cached per
(region, freshness-stripped path) and shared across shapes; frontier
dispatch recursing through interior organizing agents; derived sensors
re-evaluated through continuous-query subscriptions; and -- the PR
discipline since semcache -- the wire byte-identical to a build
without the subsystem whenever it is disabled.
"""

import math

import pytest

from repro.agg import (
    AggregationConfig,
    FormulaError,
    Partial,
    PartialAggregateAnswer,
    PartialAggregateRequest,
    SHAPES,
    collapse,
    compile_formula,
    merge_states,
    state_of,
    summary_key,
)
from repro.core import PartitionPlan
from repro.net import Cluster, NetError, OAConfig
from repro.net.messages import Message, UpdateMessage
from repro.smoke import G0_S1, three_site_document, three_site_plan
from repro.service.scenarios import (
    build_document,
    build_plan,
    quick_config,
    rollup_query,
    sensor_path,
    update_stream,
)
from repro.xmlkit import parse_fragment
from repro.xpath import parser as xpath_parser

DOCUMENT = """
<region id="R">
  <group id="g0">
    <sensor id="s0"><value>10</value></sensor>
    <sensor id="s1"><value>20</value></sensor>
  </group>
  <group id="g1">
    <sensor id="s0"><value>30</value></sensor>
    <sensor id="s1"><value>40</value></sensor>
  </group>
  <group id="g2">
    <sensor id="s0"><value>50</value></sensor>
  </group>
</region>
"""

PLAN = {
    "root": [(("region", "R"),)],
    "mid": [(("region", "R"), ("group", "g1"))],
    "leaf": [(("region", "R"), ("group", "g2"))],
}

ALL_VALUES = "/region[@id='R']/group/sensor/value"


def build_cluster(aggregation=True, plan=PLAN, document=DOCUMENT,
                  clock=None, **kwargs):
    subsystems = [AggregationConfig()] if aggregation else []
    return Cluster(parse_fragment(document), PartitionPlan(plan),
                   clock=clock, subsystems=subsystems, **kwargs)


# ----------------------------------------------------------------------
# The partial algebra
# ----------------------------------------------------------------------
class TestPartial:
    def test_shapes_match_reference(self):
        partial = Partial.of_values([10, 20, 30, 40, 50])
        assert partial.finalize("count") == 5.0
        assert partial.finalize("sum") == 150.0
        assert partial.finalize("avg") == 30.0
        assert partial.finalize("min") == 10.0
        assert partial.finalize("max") == 50.0

    def test_empty_partial_matches_evaluator_conventions(self):
        empty = Partial()
        assert empty.finalize("count") == 0.0
        assert empty.finalize("sum") == 0.0
        for shape in ("avg", "min", "max"):
            assert math.isnan(empty.finalize(shape))

    def test_nan_poisons_everything_but_count(self):
        partial = Partial.of_values([1.0, float("nan"), 3.0])
        assert partial.finalize("count") == 3.0
        for shape in ("sum", "avg", "min", "max"):
            assert math.isnan(partial.finalize(shape))

    def test_mixed_infinities_are_nan_via_flags(self):
        partial = Partial.of_values([float("inf"), float("-inf"), 1.0])
        assert math.isnan(partial.finalize("sum"))
        assert partial.finalize("min") == float("-inf")
        assert partial.finalize("max") == float("inf")

    def test_merge_is_exact_not_float_ordered(self):
        # 0.1 + 0.2 famously != 0.3 in float; the rational total makes
        # any merge order produce the single correctly-rounded sum.
        left = Partial.of_values([0.1])
        mid = Partial.of_values([0.2])
        right = Partial.of_values([0.3])
        a = left.merge(mid).merge(right)
        b = right.merge(mid.merge(left))
        assert a == b
        assert a.finalize("sum") == b.finalize("sum")

    def test_overflowing_exact_total_rounds_to_infinity(self):
        partial = Partial.of_values([1.7e308, 1.7e308])
        assert partial.finalize("sum") == float("inf")

    def test_wire_roundtrip(self):
        partial = Partial.of_values([0.1, float("inf"), -7.25])
        assert Partial.from_attrs(partial.to_attrs()) == partial

    def test_merge_states_duplicate_safe(self):
        region = (("region", "R"),)
        state = state_of(region, Partial.of_values([1, 2]), 10.0)
        assert merge_states(state, state) == state

    def test_merge_states_freshest_entry_wins(self):
        region = (("region", "R"),)
        old = state_of(region, Partial.of_values([1]), 10.0)
        new = state_of(region, Partial.of_values([1, 2]), 20.0)
        assert merge_states(old, new) == new
        assert merge_states(new, old) == new

    def test_collapse_takes_stalest_timestamp(self):
        a = state_of((("region", "R"), ("group", "g0")),
                     Partial.of_values([1]), 10.0)
        b = state_of((("region", "R"), ("group", "g1")),
                     Partial.of_values([2]), 4.0)
        partial, as_of = collapse(merge_states(a, b))
        assert as_of == 4.0
        assert partial.finalize("sum") == 3.0


class TestSummaryKey:
    def test_freshness_variants_share_a_key(self):
        region = (("region", "R"),)
        loose = xpath_parser.parse(
            ALL_VALUES + "[timestamp() > current-time() - 60]")
        tight = xpath_parser.parse(
            ALL_VALUES + "[timestamp() > current-time() - 30]")
        bare = xpath_parser.parse(ALL_VALUES)
        assert summary_key(region, loose) == summary_key(region, bare)
        assert summary_key(region, tight) == summary_key(region, bare)

    def test_id_pins_do_not_strip(self):
        region = (("region", "R"),)
        pinned = xpath_parser.parse(
            "/region[@id='R']/group[@id='g0']/sensor/value")
        bare = xpath_parser.parse(ALL_VALUES)
        assert summary_key(region, pinned) != summary_key(region, bare)


# ----------------------------------------------------------------------
# Cluster rollups
# ----------------------------------------------------------------------
class TestHierarchicalRollup:
    def test_all_shapes_over_three_sites(self):
        cluster = build_cluster()
        expected = {"count": 5.0, "sum": 150.0, "avg": 30.0,
                    "min": 10.0, "max": 50.0}
        for shape, value in expected.items():
            assert cluster.scalar(f"{shape}({ALL_VALUES})",
                                  at_site="root") == value

    def test_count_and_sum_match_naive_cluster_exactly(self):
        agg = build_cluster()
        naive = build_cluster(aggregation=None)
        for shape in ("count", "sum"):
            query = f"{shape}({ALL_VALUES})"
            assert repr(agg.scalar(query, at_site="root")) == \
                repr(naive.scalar(query, at_site="root"))

    def test_second_ask_is_a_summary_hit(self):
        cluster = build_cluster(clock=lambda: 100.0)
        query = ("avg(" + ALL_VALUES +
                 "[timestamp() > current-time() - 60])")
        cluster.scalar(query, at_site="root")
        cluster.scalar(query, at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["summary"]["hits"] == 1
        assert counters["answers"] == 2

    def test_shapes_share_one_summary(self):
        # A count prewarms the avg: same region, same stripped path.
        cluster = build_cluster(clock=lambda: 100.0)
        bound = "[timestamp() > current-time() - 60]"
        cluster.scalar(f"count({ALL_VALUES}{bound})", at_site="root")
        cluster.scalar(f"avg({ALL_VALUES}{bound})", at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["summary"]["hits"] == 1
        manager = cluster.agents["root"].subsystem("aggregation")
        assert len(manager.summaries) == 1

    def test_unbounded_ask_never_serves_from_summary(self):
        cluster = build_cluster(clock=lambda: 100.0)
        query = f"avg({ALL_VALUES})"
        cluster.scalar(query, at_site="root")
        cluster.scalar(query, at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["summary"]["hits"] == 0
        assert counters["rollups"] >= 2

    def test_frontier_dispatch_asks_owners_not_leaves(self):
        cluster = build_cluster()
        cluster.scalar(f"sum({ALL_VALUES})", at_site="root")
        root = cluster.agents["root"].subsystem("aggregation").metrics()
        mid = cluster.agents["mid"].subsystem("aggregation").metrics()
        leaf = cluster.agents["leaf"].subsystem("aggregation").metrics()
        assert root["partials_fetched"] == 2
        assert mid["partials_served"] == 1
        assert leaf["partials_served"] == 1

    def test_zone_pinned_rollup(self):
        cluster = build_cluster()
        assert cluster.scalar(
            "sum(/region[@id='R']/group[@id='g1']/sensor/value)",
            at_site="root") == 70.0

    def test_update_then_recompute_past_bound(self):
        clock = {"now": 100.0}
        cluster = build_cluster(clock=lambda: clock["now"])
        bound = "[timestamp() > current-time() - 60]"
        query = f"sum({ALL_VALUES}{bound})"
        assert cluster.scalar(query, at_site="root") == 150.0
        clock["now"] = 150.0
        cluster.agents["leaf"].database.apply_update(
            (("region", "R"), ("group", "g2"), ("sensor", "s0")),
            values={"value": "90"})
        # Within the bound the summary still serves the old answer --
        # the bounded-staleness contract, same as the semantic cache.
        assert cluster.scalar(query, at_site="root") == 150.0
        # Past the bound the rollup recomputes from the owners' data,
        # all of it current: the bound never filters a value out.
        clock["now"] = 170.0
        assert cluster.scalar(query, at_site="root") == 190.0


def _bound(seconds):
    return f"[timestamp() > current-time() - {seconds}]"


SMOKE_VALUES = "/region[@id='R']/group/sensor/value"


class TestFreshnessDecidesWhatIsFetched:
    """The three-site smoke deployment (values ``10*g+s``, sum 36, all
    stamped at t=1000, ``mid`` owning ``g0``): a freshness bound decides
    what is fetched again, never what is counted, and no answer is
    served beyond its caller's bound."""

    def _cluster(self, aggregation=True):
        clock = {"now": 1000.0}
        cluster = Cluster(
            three_site_document(lambda group, sensor: 10 * group + sensor),
            three_site_plan(), clock=lambda: clock["now"],
            subsystems=[AggregationConfig()] if aggregation else [])
        return cluster, clock

    def _update(self, cluster, value):
        cluster.agents["mid"].handle_message(UpdateMessage(
            G0_S1, values={"value": str(value)}, sender="sa"))

    def test_a_bounded_count_counts_what_the_user_query_returns(self):
        cluster, clock = self._cluster(aggregation=False)
        clock["now"] = 1029.0
        self._update(cluster, 39)
        inner = SMOKE_VALUES + _bound(5)
        results, _, _ = cluster.query(inner, at_site="top")
        assert len(results) == 6
        assert cluster.scalar(f"count({inner})", at_site="top") == 6.0

    def test_a_tighter_bound_is_not_served_an_older_summary(self):
        cluster, clock = self._cluster()
        assert cluster.scalar(f"sum({SMOKE_VALUES}{_bound(30)})",
                              at_site="top") == 36.0
        clock["now"] = 1029.0
        self._update(cluster, 39)
        assert cluster.scalar(f"sum({SMOKE_VALUES}{_bound(28)})",
                              at_site="top") == 74.0

    def test_bounds_share_a_summary_of_the_same_data(self):
        cluster, clock = self._cluster()
        clock["now"] = 1029.0
        self._update(cluster, 39)
        for seconds in (5, 60):
            assert cluster.scalar(f"count({SMOKE_VALUES}{_bound(seconds)})",
                                  at_site="top") == 6.0

    def test_a_relayed_summary_keeps_its_as_of_time(self):
        cluster, clock = self._cluster()
        query = ("sum(/region[@id='R']/group[@id='g0']/sensor/value"
                 + _bound(30) + ")")
        assert cluster.scalar(query, at_site="mid") == 3.0
        clock["now"] = 1025.0
        self._update(cluster, 50)
        # Current at 1000, within the 30 s bound at 1029 ...
        clock["now"] = 1029.0
        assert cluster.scalar(query, at_site="top") == 3.0
        # ... and beyond it at 1050, however recently top stored it.
        clock["now"] = 1050.0
        assert cluster.scalar(query, at_site="top") == 52.0


class TestFallbacks:
    def test_a_descendant_scan_crosses_an_id_complete_group(self):
        cluster = build_cluster(aggregation=None)
        results, _, outcome = cluster.query("/region[@id='R']//value",
                                            at_site="root")
        assert outcome.complete
        assert sorted(result.text for result in results) == [
            "10", "20", "30", "40", "50"]

    def test_count_with_descendant_axis_uses_naive_path(self):
        cluster = build_cluster()
        assert cluster.scalar("count(/region[@id='R']//value)",
                              at_site="root") == 5.0
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["unsupported_queries"] == 1
        assert counters["answers"] == 0

    def test_avg_with_descendant_axis_raises(self):
        cluster = build_cluster()
        with pytest.raises(Exception) as excinfo:
            cluster.scalar("avg(/region[@id='R']//value)", at_site="root")
        assert "avg" in str(excinfo.value)

    def test_sum_falls_back_when_child_site_is_gone(self):
        cluster = build_cluster()
        cluster.network.unregister("leaf")
        with pytest.raises((OSError, NetError)):
            cluster.scalar(f"avg({ALL_VALUES})", at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["fallbacks"] == 1

    def test_disabled_manager_is_absent(self):
        cluster = build_cluster(aggregation=None)
        assert cluster.agents["root"].subsystem("aggregation") is None
        assert cluster.subsystem("aggregation") is None

    def test_partial_request_to_disabled_site_errors(self):
        cluster = build_cluster(aggregation=None)
        message = PartialAggregateRequest(
            (("region", "R"),), ALL_VALUES, sender="tester")
        reply = cluster.network.request("root", "root", message)
        assert reply.code == "unhandled-kind"
        assert not reply.retryable

    def test_partial_request_for_unowned_region_errors(self):
        cluster = build_cluster()
        message = PartialAggregateRequest(
            (("region", "R"), ("group", "g2")), ALL_VALUES,
            sender="tester")
        reply = cluster.network.request("tester", "mid", message)
        assert reply.code == "agg-not-owned"


# ----------------------------------------------------------------------
# The wire messages
# ----------------------------------------------------------------------
class TestPartialAggregateWire:
    def test_request_roundtrip(self):
        message = PartialAggregateRequest(
            (("region", "R"), ("group", "g1")), ALL_VALUES,
            bound=60.0, now=123.5, sender="root")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, PartialAggregateRequest)
        assert decoded.region == message.region
        assert decoded.query == ALL_VALUES
        assert decoded.bound == 60.0
        assert decoded.now == 123.5

    def test_answer_roundtrip_preserves_exact_state(self):
        state = state_of((("region", "R"),),
                         Partial.of_values([0.1, 0.2]), 55.25)
        message = PartialAggregateAnswer(7, state, sender="leaf")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, PartialAggregateAnswer)
        assert decoded.state == state
        assert decoded.in_reply_to == 7


# ----------------------------------------------------------------------
# Derived sensors
# ----------------------------------------------------------------------
class TestDerivedSensors:
    FORMULA = "avg(/region[@id='R']/group/sensor/value) - 5"

    def test_formula_compilation_extracts_dependencies(self):
        _ast, anchors = compile_formula(self.FORMULA)
        assert anchors == [(("region", "R"),)]

    def test_constant_formula_rejected(self):
        with pytest.raises(FormulaError):
            compile_formula("2 + 2")

    def test_unanchored_aggregate_rejected(self):
        with pytest.raises(FormulaError):
            compile_formula("avg(/region/group/sensor/value)")

    def test_registration_writes_initial_value(self):
        cluster = build_cluster()
        sensor = cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "d0", self.FORMULA)
        assert sensor.last_value == 25.0
        results, _, _ = cluster.query(
            "/region[@id='R']/derived[@id='d0']", at_site="root")
        assert "25" in "".join(r.text or "" for result in results
                               for r in result.iter("value"))

    def test_update_triggers_refresh_through_continuous(self):
        clock = {"now": 100.0}
        cluster = build_cluster(clock=lambda: clock["now"])
        sensor = cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "d0", self.FORMULA)
        assert sensor.last_value == 25.0
        clock["now"] = 200.0
        cluster.agents["root"].database.apply_update(
            (("region", "R"), ("group", "g0"), ("sensor", "s0")),
            values={"value": "70"})
        cluster.agents["root"].continuous.on_update(
            (("region", "R"), ("group", "g0"), ("sensor", "s0")))
        assert sensor.last_value == 37.0

    def test_derived_sensor_requires_aggregation(self):
        # Registration is the subsystem's own method: without the
        # config there is nothing to register a derived sensor with.
        cluster = build_cluster(aggregation=None)
        assert cluster.subsystem("aggregation") is None
        assert not hasattr(cluster, "register_derived_sensor")


# ----------------------------------------------------------------------
# Scenario generator
# ----------------------------------------------------------------------
class TestScenarios:
    def test_document_matches_predicted_element_count(self):
        config = quick_config()
        root = build_document(config)
        assert sum(1 for _ in root.iter()) == config.element_count

    def test_plan_covers_the_document(self):
        config = quick_config()
        plan = build_plan(config)
        assert len(plan.sites) == config.site_count
        plan.owner_map(build_document(config))  # raises if inconsistent

    def test_update_stream_paths_exist(self):
        config = quick_config()
        cluster = Cluster(build_document(config), build_plan(config))
        for path, values in update_stream(config, 20):
            site = cluster.owner_map[path[:2]]
            cluster.agents[site].database.apply_update(
                path, values=values)

    def test_zipf_stream_is_skewed(self):
        config = quick_config(zipf_s=1.4)
        hits = {}
        for path, _values in update_stream(config, 400):
            hits[path] = hits.get(path, 0) + 1
        top = max(hits.values())
        assert top > 400 / config.sensor_count * 3

    def test_rollup_query_is_supported_by_the_algebra(self):
        config = quick_config()
        cluster = Cluster(build_document(config), build_plan(config),
                          subsystems=[AggregationConfig()])
        for shape in SHAPES:
            value = cluster.scalar(rollup_query(config, shape),
                                   at_site="root", now=5.0)
            assert not math.isnan(value)

    def test_pinned_rollup_only_counts_the_zone(self):
        config = quick_config()
        cluster = Cluster(build_document(config), build_plan(config),
                          subsystems=[AggregationConfig()])
        whole = cluster.scalar(rollup_query(config, "count"),
                               at_site="root", now=5.0)
        zone = cluster.scalar(rollup_query(config, "count", zone=(0,)),
                              at_site="root", now=5.0)
        assert whole == float(config.sensor_count)
        assert zone == float(config.sensor_count // config.fanout)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_cluster_metrics_aggregation_section(self):
        cluster = build_cluster()
        cluster.scalar(f"avg({ALL_VALUES})", at_site="root")
        section = cluster.metrics()["aggregation"]
        assert section["answers"] == 1
        assert section["partials_fetched"] == 2
        assert "summary_hit_ratio" in section
        assert set(section["sites"]) == {"root", "mid", "leaf"}

    def test_metrics_absent_when_disabled(self):
        cluster = build_cluster(aggregation=None)
        assert "aggregation" not in cluster.metrics()

    def test_explain_shows_summary_rollup(self):
        cluster = build_cluster(clock=lambda: 100.0)
        query = ("avg(" + ALL_VALUES +
                 "[timestamp() > current-time() - 60])")
        report = cluster.explain(query)
        text = report.render()
        assert "aggregation: avg() via summary rollup" in text
        assert "summary-cache miss" in text
        cluster.scalar(query, at_site="root")
        text = cluster.explain(query).render()
        assert "summary-cache hit candidate" in text
        assert report.to_dict()["aggregation"]["supported"] is True

    def test_explain_never_distorts_summary_counters(self):
        cluster = build_cluster(clock=lambda: 100.0)
        query = ("avg(" + ALL_VALUES +
                 "[timestamp() > current-time() - 60])")
        cluster.scalar(query, at_site="root")
        summaries = cluster.agents["root"].subsystem("aggregation").summaries
        before = summaries.metrics()
        cluster.explain(query)
        assert summaries.metrics() == before

    def test_explain_reports_naive_path_for_unsupported(self):
        cluster = build_cluster()
        text = cluster.explain("count(/region[@id='R']//value)").render()
        assert "via naive gather" in text


# ----------------------------------------------------------------------
# Wire parity (the PR discipline)
# ----------------------------------------------------------------------
class TestWireParity:
    QUERIES = (
        "/region[@id='R']/group[@id='g1']",
        ALL_VALUES,
    )

    def _traffic(self, aggregation):
        cluster = build_cluster(aggregation=aggregation,
                                count_bytes=True)
        for query in self.QUERIES:
            cluster.query(query, at_site="root")
        cluster.scalar(f"count({ALL_VALUES})", at_site="root")
        cluster.scalar(f"sum({ALL_VALUES})", at_site="root")
        return (cluster.network.traffic.messages,
                cluster.network.traffic.bytes)

    def test_enabled_config_changes_the_traffic(self):
        # Guard the guard: partial-aggregate tuples replace subtree
        # gathers, so enabling must move the byte count.
        enabled = self._traffic(True)
        absent = self._traffic(None)
        assert enabled != absent
