"""Hierarchical aggregation: summaries, rollups, derived sensors.

Aggregate queries answered from mergeable partial aggregates instead
of leaf fan-out; summaries cached per (region, freshness-stripped path),
shared across shapes and served to an unbounded repeat; frontier
dispatch recursing through interior organizing agents; derived sensors
re-evaluated through continuous-query subscriptions.  Where a rollup is
checked against "the walk", that is the gather driver's own
``answer_scalar`` on a twin cluster: the inner path gathered as a user
query, and the wrapper evaluated over its matches.
"""

import math
import threading

import pytest

from repro.agg import (
    DerivedSensor,
    FormulaError,
    Partial,
    SHAPES,
    collapse,
    compile_formula,
    summary_key,
)
from repro.arch import hierarchical
from repro.core import PartitionPlan
from repro.core.errors import UnsupportedDistributedQueryError
from repro.net import Cluster, NetError, OAConfig
from repro.net.messages import Ask, QueryMessage, UpdateMessage
from repro.net.tcpruntime import TcpCluster
from repro.service import ParkingConfig, build_parking_document, parking
from repro.service.scenarios import (
    build_document,
    build_plan,
    quick_config,
    rollup_query,
    update_stream,
)
from repro.xmlkit import parse_fragment, serialize
from repro.xpath import parser as xpath_parser

from tests.conftest import G0_S1, three_site_document, three_site_plan

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
#: The aggregates XPath 1.0 has: the evaluator and the walk answer
#: them too.
XPATH_SHAPES = ("count", "sum")


def build_cluster(plan=PLAN, document=DOCUMENT, clock=None, **kwargs):
    return Cluster(parse_fragment(document), PartitionPlan(plan),
                   clock=clock, **kwargs)


def walk(cluster, query, at_site):
    """*query* answered by *at_site*'s gather driver: no rollup."""
    return cluster.agents[at_site].driver.answer_scalar(query)


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

    def test_collapse_takes_stalest_timestamp(self):
        state = {(("region", "R"), ("group", "g0")):
                 (Partial.of_values([1]), 10.0),
                 (("region", "R"), ("group", "g1")):
                 (Partial.of_values([2]), 4.0)}
        partial, as_of = collapse(state)
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

    def test_count_and_sum_match_the_walk_exactly(self):
        agg = build_cluster()
        twin = build_cluster()
        for shape in XPATH_SHAPES:
            query = f"{shape}({ALL_VALUES})"
            assert repr(agg.scalar(query, at_site="root")) == \
                repr(walk(twin, query, "root"))

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

    def test_an_unbounded_repeat_is_a_summary_hit(self):
        # Section 4: no consistency predicate, data of any age.
        cluster = build_cluster(clock=lambda: 100.0, count_bytes=True)
        query = f"avg({ALL_VALUES})"
        assert cluster.scalar(query, at_site="root") == 30.0
        sent = cluster.network.traffic.messages
        assert cluster.scalar(query, at_site="root") == 30.0
        assert cluster.network.traffic.messages == sent
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["summary"]["hits"] == 1
        assert counters["rollups"] == 1

    def test_an_update_at_the_owner_reaches_an_unbounded_ask_there(self):
        clock = {"now": 100.0}
        cluster = build_cluster(clock=lambda: clock["now"])
        query = "sum(/region[@id='R']/group[@id='g2']/sensor/value)"
        assert cluster.scalar(query, at_site="leaf") == 50.0
        cluster.agents["leaf"].handle_message(UpdateMessage(
            (("region", "R"), ("group", "g2"), ("sensor", "s0")),
            values={"value": "90"}, sender="sa"))
        assert cluster.scalar(query, at_site="leaf") == 90.0

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


REGION_VALUES = "/region[@id='R']/group/sensor/value"


class TestFreshnessDecidesWhatIsFetched:
    """The three-site deployment (values ``10*g+s``, sum 36, all
    stamped at t=1000, ``mid`` owning ``g0``): a freshness bound decides
    what is fetched again, never what is counted, and no answer is
    served beyond its caller's bound."""

    def _cluster(self):
        clock = {"now": 1000.0}
        cluster = Cluster(
            three_site_document(lambda group, sensor: 10 * group + sensor),
            three_site_plan(), clock=lambda: clock["now"])
        return cluster, clock

    def _update(self, cluster, value):
        cluster.agents["mid"].handle_message(UpdateMessage(
            G0_S1, values={"value": str(value)}, sender="sa"))

    def test_a_bounded_count_counts_what_the_user_query_returns(self):
        cluster, clock = self._cluster()
        clock["now"] = 1029.0
        self._update(cluster, 39)
        inner = REGION_VALUES + _bound(5)
        assert cluster.scalar(f"count({inner})", at_site="top") == 6.0
        results, _, _ = cluster.query(inner, at_site="top")
        assert len(results) == 6
        assert walk(cluster, f"count({inner})", "top") == 6.0

    def test_a_tighter_bound_is_not_served_an_older_summary(self):
        cluster, clock = self._cluster()
        assert cluster.scalar(f"sum({REGION_VALUES}{_bound(30)})",
                              at_site="top") == 36.0
        clock["now"] = 1029.0
        self._update(cluster, 39)
        assert cluster.scalar(f"sum({REGION_VALUES}{_bound(28)})",
                              at_site="top") == 74.0

    def test_bounds_share_a_summary_of_the_same_data(self):
        cluster, clock = self._cluster()
        clock["now"] = 1029.0
        self._update(cluster, 39)
        for seconds in (5, 60):
            assert cluster.scalar(f"count({REGION_VALUES}{_bound(seconds)})",
                                  at_site="top") == 6.0

    def test_a_relayed_summary_keeps_its_as_of_time(self):
        cluster, clock = self._cluster()
        query = ("sum(/region[@id='R']/group[@id='g0']/sensor/value"
                 + _bound(30) + ")")
        assert cluster.scalar(query, at_site="mid") == 3.0
        # Current at 1000, within the 30 s bound at 1029: mid serves
        # its summary, and top stores it as of 1000 ...
        clock["now"] = 1029.0
        assert cluster.scalar(query, at_site="top") == 3.0
        clock["now"] = 1040.0
        self._update(cluster, 50)
        # ... so beyond the bound at 1050, however recently top stored
        # it, top asks again, and mid (which evicted on the update)
        # rolls up its current data.
        clock["now"] = 1050.0
        assert cluster.scalar(query, at_site="top") == 52.0

    def test_a_summary_that_counted_cached_copies_serves_no_bound(self):
        cluster, clock = self._cluster()
        cluster.query(REGION_VALUES, at_site="top")  # copies as of 1000
        clock["now"] = 1040.0
        self._update(cluster, 50)
        clock["now"] = 1050.0
        # Unbounded, top's copies count whatever their age (Section 4)
        # ...
        assert cluster.scalar(f"sum({REGION_VALUES})", at_site="top") == 36.0
        # ... so that summary is of unknown age, and serves no bound.
        assert cluster.scalar(f"sum({REGION_VALUES}{_bound(30)})",
                              at_site="top") == 85.0

    def test_a_fresh_copy_beside_a_stale_one_is_counted_once(self):
        # top caches g0 at 1000 and s1 again at 1050: at 1060 the stale
        # s0 and s2 ask for all of g0, and the reply counts s1 too.
        cluster, clock = self._cluster()
        cluster.query("/region[@id='R']/group[@id='g0']/sensor",
                      at_site="top")
        clock["now"] = 1050.0
        self._update(cluster, 50)
        cluster.query("/region[@id='R']/group[@id='g0']/sensor[@id='s1']"
                      + _bound(5),
                      at_site="top")
        clock["now"] = 1060.0
        for shape, value in (("count", 6.0), ("sum", 85.0)):
            assert cluster.scalar(f"{shape}({REGION_VALUES}{_bound(20)})",
                                  at_site="top") == value
        # The g0 partial stands for s1's fresh copy: no second gather.
        counters = cluster.agents["top"].subsystem("aggregation").metrics()
        assert counters["overlap_drops"] == 1
        assert counters["overlap_regathers"] == 0


@pytest.mark.parametrize("executor, over_tcp", [
    ("serial", False), ("threaded", False), ("serial", True)],
    ids=["serial", "threaded", "tcp"])
def test_a_scan_over_a_region_holding_an_owned_node_counts_it_once(
        executor, over_tcp, request):
    # top owns R and g0's s1, mid the rest of g0: the scan asks for all
    # of g0 and, below it, for s0 and s2 -- and mid's g0 reply counts
    # those, and s1 through top, already.  mid's ask comes back up to
    # top while top's rollup waits, whatever top's executor, and over
    # sockets too.
    region = (("region", "R"),)
    g0 = region + (("group", "g0"),)
    plan = PartitionPlan({"top": [region, g0 + (("sensor", "s1"),)],
                          "mid": [g0],
                          "leaf": [region + (("group", "g1"),)]})
    document = three_site_document(lambda group, sensor: 10 * group + sensor)
    config = OAConfig(executor=executor)
    if over_tcp:
        tcp = TcpCluster(document, plan, oa_config=config)
        request.addfinalizer(tcp.close)
        cluster = tcp.cluster
    else:
        cluster = Cluster(document, plan, oa_config=config)
    for shape, value in (("count", 6.0), ("sum", 36.0), ("max", 12.0)):
        assert cluster.scalar(f"{shape}(/region[@id='R']//value)",
                              at_site="top") == value


def test_a_match_below_a_scan_ask_it_does_not_reach_counts():
    # top caches z0 and the nested z1 at 1000 and z1's s0 again at 1050:
    # at 1060 the stale s1 asks for z0/sensor/value, which does not
    # reach z0/z1/sensor/value -- so the fresh copy counts here.
    clock = {"now": 1000.0}
    document = parse_fragment(
        "<deployment id='D'><zone id='z0'><zone id='z1'><sensor id='s0'>"
        "<value>1</value></sensor></zone><sensor id='s1'><value>2</value>"
        "</sensor></zone></deployment>")
    z0 = (("deployment", "D"), ("zone", "z0"))
    plan = PartitionPlan({"top": [z0[:1]], "site1": [z0]})
    cluster = Cluster(document, plan, clock=lambda: clock["now"])
    cluster.query("/deployment[@id='D']//zone/sensor/value", at_site="top")
    clock["now"] = 1050.0
    s0 = z0 + (("zone", "z1"), ("sensor", "s0"))
    cluster.agents["site1"].handle_message(
        UpdateMessage(s0, values={"value": "1"}, sender="sa"))
    cluster.query("/deployment[@id='D']/zone[@id='z0']/zone[@id='z1']"
                  "/sensor[@id='s0']" + _bound(5), at_site="top")
    clock["now"] = 1060.0
    inner = "/deployment[@id='D']//zone/sensor/value" + _bound(20)
    assert cluster.scalar(f"count({inner})", at_site="top") == 2.0
    assert cluster.scalar(f"sum({inner})", at_site="top") == 3.0
    counters = cluster.agents["top"].subsystem("aggregation").metrics()
    assert counters["overlap_drops"] == 0
    assert counters["overlap_regathers"] == 0


def test_two_scans_asking_one_region_twice_count_it_once():
    # z0's stub is asked for as a zone and as a scan below one: under
    # two ``//`` steps the two asks share the value under z1.
    document = parse_fragment(
        "<deployment id='D'><zone id='z0'><zone id='z1'><sensor id='s0'>"
        "<value>1</value></sensor></zone><sensor id='s1'><value>2</value>"
        "</sensor></zone></deployment>")
    plan = PartitionPlan({"root": [(("deployment", "D"),)],
                          "site1": [(("deployment", "D"), ("zone", "z0"))]})
    cluster = Cluster(document, plan)
    assert cluster.scalar("count(/deployment[@id='D']//zone//value)",
                          at_site="root") == 2.0
    assert cluster.scalar("avg(/deployment[@id='D']//zone//value)",
                          at_site="root") == 1.5


def test_a_city_free_space_count_ships_partials_not_spaces():
    # "How many spaces are free in this city", posed at the city's site
    # in both spellings: the walk's asks go out as partial aggregates.
    config = ParkingConfig.tiny()
    path = parking.city_path(config, config.city_names()[0])
    prefix = "".join(f"/{tag}[@id='{name}']" for tag, name in path)
    for form in ("/neighborhood/block/", "//"):
        query = f"count({prefix}{form}parkingSpace[available='yes'])"
        costs = {}
        for rolled in (True, False):
            cluster = Cluster(
                build_parking_document(config), hierarchical(config).plan,
                count_bytes=True, clock=lambda: 1000.0)
            site = cluster.owner_map[path]
            value = cluster.scalar(query, at_site=site) if rolled \
                else walk(cluster, query, site)
            costs[rolled] = (repr(value), cluster.network.traffic.bytes)
        assert costs[True][0] == costs[False][0], (form, costs)
        assert costs[True][1] < costs[False][1], (form, costs)


class TestFinalSteps:
    """A path ending in ``text()`` or a named attribute rolls up: the
    walk takes it to its elements, and the fold reads the step off each
    match, here and at every owner asked."""

    WEIGHTED = """
    <region id="R">
      <group id="g0">
        <sensor id="s0" w="1"><value>10</value></sensor>
        <sensor id="s1" w="2"><value>20</value></sensor>
      </group>
      <group id="g1">
        <sensor id="s0" w="3"><value>30</value></sensor>
        <sensor id="s1" w="4"><value>40</value></sensor>
      </group>
      <group id="g2">
        <sensor id="s0"><value>50</value></sensor>
      </group>
    </region>
    """

    @pytest.mark.parametrize("bound", ["", _bound(30)])
    def test_a_text_step_counts_what_the_path_query_counts(self, bound):
        # A bound goes on ``value``: a text node's stamp is its
        # parent's.
        for shape, value in (("count", 5.0), ("sum", 150.0)):
            query = f"{shape}({ALL_VALUES}{bound}/text())"
            cluster = build_cluster(clock=lambda: 100.0)
            rolled = cluster.scalar(query, at_site="root")
            counters = cluster.agents["root"].subsystem(
                "aggregation").metrics()
            assert counters["answers"] == 1
            assert counters["partials_fetched"] == 2
            walked = walk(build_cluster(clock=lambda: 100.0), query, "root")
            assert repr(rolled) == repr(walked) == repr(value), query

    def test_an_attribute_step_rolls_up(self):
        # g2's sensor has no ``w``: it counts for nothing.
        cluster = build_cluster(document=self.WEIGHTED)
        expected = {"count": 4.0, "sum": 10.0, "avg": 2.5,
                    "min": 1.0, "max": 4.0}
        for shape, value in expected.items():
            assert cluster.scalar(
                f"{shape}(/region[@id='R']/group/sensor/@w)",
                at_site="root") == value
        # The other four shapes are served the count's summary.
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["answers"] == 5
        assert counters["partials_fetched"] == 2
        assert counters["summary"]["hits"] == 4

    def test_another_last_step_rolls_up_through_the_walk(self):
        # ``node()`` stays in the walk, owners' asks included, and the
        # fold reads the text nodes it matches.
        query = f"{ALL_VALUES}/node()"
        cluster = build_cluster()
        expected = {"count": 5.0, "sum": 150.0, "avg": 30.0,
                    "min": 10.0, "max": 50.0}
        for shape, value in expected.items():
            assert cluster.scalar(f"{shape}({query})",
                                  at_site="root") == value
        for shape in XPATH_SHAPES:
            assert repr(walk(build_cluster(), f"{shape}({query})",
                             "root")) == repr(expected[shape])
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["unsupported_queries"] == 0
        assert counters["answers"] == 5
        assert counters["partials_fetched"] == 2
        assert counters["partial_failures"] == 0


class TestFallbacks:
    def test_a_descendant_scan_crosses_an_id_complete_group(self):
        cluster = build_cluster()
        results, _, outcome = cluster.query("/region[@id='R']//value",
                                            at_site="root")
        assert outcome.complete
        assert sorted(result.text for result in results) == [
            "10", "20", "30", "40", "50"]

    def test_count_with_descendant_axis_rolls_up(self):
        # The walk's own ``//`` asks go out as partial aggregates.
        cluster = build_cluster()
        assert cluster.scalar("count(/region[@id='R']//value)",
                              at_site="root") == 5.0
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["unsupported_queries"] == 0
        assert counters["answers"] == 1
        assert counters["partials_fetched"] == 2

    def test_avg_with_descendant_axis_rolls_up(self):
        cluster = build_cluster()
        assert cluster.scalar("avg(/region[@id='R']//value)",
                              at_site="root") == 30.0

    def test_avg_outside_the_walk_raises(self):
        cluster = build_cluster()
        with pytest.raises(UnsupportedDistributedQueryError):
            cluster.scalar("avg(/region[@id='R']/group/..)", at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["unsupported_queries"] == 1

    def test_sum_falls_back_when_child_site_is_gone(self):
        cluster = build_cluster()
        cluster.network.unregister("leaf")
        with pytest.raises((OSError, NetError)):
            cluster.scalar(f"avg({ALL_VALUES})", at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["partial_failures"] == 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_raises_where_no_rollup_goes(self, shape):
        # A path the walk cannot compile, and a region that answers
        # neither the partial nor the path ask it falls back to (no
        # replication here): no shape is walked instead.
        cluster = build_cluster()
        with pytest.raises(UnsupportedDistributedQueryError):
            cluster.scalar(f"{shape}(/region[@id='R']/group/..)",
                           at_site="root")
        cluster.network.unregister("leaf")
        with pytest.raises(NetError):
            cluster.scalar(f"{shape}({ALL_VALUES})", at_site="root")
        counters = cluster.agents["root"].subsystem("aggregation").metrics()
        assert counters["unsupported_queries"] == 1
        assert counters["partial_failures"] == 1
        assert counters["answers"] == 0

    def test_every_agent_and_cluster_runs_aggregation(self):
        cluster = build_cluster()
        for agent in cluster.agents.values():
            assert agent.subsystem("aggregation") is agent.aggregation
        assert cluster.subsystem("aggregation").cluster is cluster

    def test_a_fold_item_at_a_non_owner_is_answered_as_its_path(self):
        # mid does not own g2: it answers the fold item with the
        # fragment the path ask gets, and charges no refusal to anyone.
        cluster = build_cluster()
        path = "/region[@id='R']/group[@id='g2']/sensor/value"
        folded = cluster.network.request(
            "tester", "mid", QueryMessage([Ask(path, ".", 30.0)],
                                          sender="tester"))
        plain = cluster.network.request(
            "tester", "mid", QueryMessage(path, sender="tester"))
        [answer] = folded.answers
        assert answer.holder == "fragment" and answer.value is not None
        assert serialize(answer.value) == serialize(plain.fragment)
        counters = cluster.agents["mid"].subsystem("aggregation").metrics()
        assert counters["partials_served"] == 0


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

    def test_the_write_back_holds_the_site_guard(self, monkeypatch):
        # The refresh at registration runs on the caller's thread, which
        # holds no guard: the write into the site database takes it.
        cluster = build_cluster()
        agent = cluster.agents["root"]
        held, write = [], agent.database.apply_update

        def recording(*args, **kwargs):
            held.append(agent.guard._owner == threading.get_ident())
            return write(*args, **kwargs)

        monkeypatch.setattr(agent.database, "apply_update", recording)
        cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "d0", self.FORMULA)
        assert held == [True]

    @pytest.mark.parametrize("formula, expected", [
        # XPath's mod truncates toward zero: -7 mod 3 is -1, not 2.
        ("-7 mod count(/region[@id='R']/group/sensor)", -1.0),
        ("7 mod -count(/region[@id='R']/group/sensor)", 1.0),
        ("count(/region[@id='R']/group/sensor) div 0", math.inf),
        ("1 div -(count(/region[@id='R']/group/sensor) - 3)", -math.inf),
    ])
    def test_arithmetic_is_the_evaluators(self, formula, expected):
        sensor = DerivedSensor("d", (("region", "R"),), formula)
        assert sensor.evaluate(lambda query: 3.0) == expected

    def test_mod_by_zero_is_nan(self):
        sensor = DerivedSensor(
            "d", (("region", "R"),),
            "count(/region[@id='R']/group/sensor) mod 0")
        assert math.isnan(sensor.evaluate(lambda query: 3.0))

    def test_a_refresh_reads_current_data_in_the_same_instant(self):
        # A remote update in the instant of the last refresh: the zero
        # bound is served no summary, so the next refresh counts it.
        cluster = build_cluster(clock=lambda: 100.0)
        sensor = cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "d0", self.FORMULA)
        cluster.agents["leaf"].handle_message(UpdateMessage(
            (("region", "R"), ("group", "g2"), ("sensor", "s0")),
            values={"value": "100"}, sender="sa"))
        manager = cluster.agents["root"].subsystem("aggregation")
        assert manager.refresh_derived("d0") == 35.0
        assert sensor.last_value == 35.0

    def test_a_refresh_folds_each_path_once(self):
        # ``max`` and ``min`` over one path finalize the refresh's one
        # rollup: a partial per owner, not per aggregate.
        cluster = build_cluster(clock=lambda: 100.0)
        cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "spread",
            f"max({ALL_VALUES}) - min({ALL_VALUES})")
        manager = cluster.agents["root"].subsystem("aggregation")
        before = manager.metrics()["partials_fetched"]
        assert manager.refresh_derived("spread") == 40.0
        assert manager.metrics()["partials_fetched"] - before == 2

    def test_a_refresh_under_another_last_step_reads_current_data(self):
        # The zero bound goes on ``value``, the last element step: a
        # text node's stamp is its parent's.
        cluster = build_cluster(clock=lambda: 100.0)
        sensor = cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "d0", f"sum({ALL_VALUES}/node())")
        assert sensor.last_value == 150.0
        cluster.agents["leaf"].handle_message(UpdateMessage(
            (("region", "R"), ("group", "g2"), ("sensor", "s0")),
            values={"value": "100"}, sender="sa"))
        manager = cluster.agents["root"].subsystem("aggregation")
        assert manager.refresh_derived("d0") == 200.0


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
        plan.partition(build_document(config))  # raises if inconsistent

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
        cluster = Cluster(build_document(config), build_plan(config))
        for shape in SHAPES:
            value = cluster.scalar(rollup_query(config, shape),
                                   at_site="root", now=5.0)
            assert not math.isnan(value)

    def test_a_pin_below_an_unpinned_step_rolls_up(self):
        # Each zone's owner is asked with the pin on its child zone, and
        # asks that zone's own site in turn.
        config = quick_config(fanout=3, depth=3, sensors_per_group=2,
                              site_depth=2)
        query = (f"sum(/deployment[@id='{config.root_id}']/zone"
                 "/zone[@id='z1']/zone/sensor/value)")
        rolled, twin = (Cluster(build_document(config), build_plan(config))
                        for _ in range(2))
        assert rolled.scalar(query, at_site="root", now=5.0) == \
            twin.agents["root"].driver.answer_scalar(query, now=5.0)
        counters = rolled.agents["root"].subsystem("aggregation").metrics()
        assert (counters["answers"], counters["partial_failures"]) == (1, 0)

    def test_pinned_rollup_only_counts_the_zone(self):
        config = quick_config()
        cluster = Cluster(build_document(config), build_plan(config))
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

    def test_explain_reports_a_rollup_for_a_descendant_scan(self):
        cluster = build_cluster()
        text = cluster.explain("count(/region[@id='R']//value)").render()
        assert "aggregation: count() via summary rollup" in text
