"""Property: the partial aggregate algebra is a commutative monoid,
and summary-served answers equal the naive fan-out byte-for-byte.

The hierarchy's correctness rests on two algebraic facts the rollup
tree exploits freely -- merge order never matters (children reply in
any order) and merge grouping never matters (interior sites
pre-merge) -- plus end-to-end facts:
for *any* tree shape and *any* partition of it over sites, an
aggregate answered through summaries prints identically to the same
aggregate computed by naive leaf fan-out; under any freshness bound
and any update history, the rollup and the walk (the gather driver's
``answer_scalar`` on a twin cluster) both equal the
consistency-stripped query over the one logical document; and an
owner's unbounded answer shows every update it applied.
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

from repro.agg import SHAPES, Partial
from repro.core import PartitionPlan
from repro.core.consistency import strip_consistency_predicates
from repro.net import Cluster
from repro.net.messages import UpdateMessage
from repro.xmlkit import Element
from repro.xpath.evaluator import Evaluator
from repro.xpath import parser as xpath_parser
from repro.xpath.types import node_string_value, to_number

from tests.conftest import three_site_document, three_site_plan

# Magnitudes stay below ~1e100: large enough to stress the rational
# sum, small enough that no intermediate rounds to infinity (where
# fsum raises and byte-identity becomes an IEEE-ordering question).
finite_values = st.floats(min_value=-1e100, max_value=1e100,
                          allow_nan=False, width=64)
values = st.one_of(
    finite_values,
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
value_lists = st.lists(values, max_size=12)


def _same_float(a, b):
    return repr(a) == repr(b)  # NaN-safe, sign-of-zero-exact


# ----------------------------------------------------------------------
# The merge monoid
# ----------------------------------------------------------------------
class TestMergeAlgebra:
    @given(value_lists, value_lists)
    def test_commutative(self, xs, ys):
        a, b = Partial.of_values(xs), Partial.of_values(ys)
        assert a.merge(b) == b.merge(a)

    @given(value_lists, value_lists, value_lists)
    def test_associative(self, xs, ys, zs):
        a, b, c = (Partial.of_values(v) for v in (xs, ys, zs))
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(value_lists)
    def test_empty_partial_is_identity(self, xs):
        a = Partial.of_values(xs)
        assert a.merge(Partial()) == a
        assert Partial().merge(a) == a

    @given(value_lists, value_lists, value_lists)
    def test_any_merge_tree_finalizes_identically(self, xs, ys, zs):
        chunks = [Partial.of_values(v) for v in (xs, ys, zs)]
        whole = Partial.of_values(xs + ys + zs)
        left = chunks[0].merge(chunks[1]).merge(chunks[2])
        right = chunks[2].merge(chunks[1].merge(chunks[0]))
        for shape in SHAPES:
            assert _same_float(left.finalize(shape),
                               whole.finalize(shape))
            assert _same_float(right.finalize(shape),
                               whole.finalize(shape))

    @given(value_lists)
    def test_wire_roundtrip_is_lossless(self, xs):
        partial = Partial.of_values(xs)
        again = Partial.from_attrs(partial.to_attrs())
        assert again == partial
        for shape in SHAPES:
            assert _same_float(again.finalize(shape),
                               partial.finalize(shape))


def test_signed_zero_extrema_ignore_merge_order():
    """``0.0`` and ``-0.0`` compare equal, so plain ``min``/``max`` kept
    whichever came first."""
    a, b = Partial.of_values([0.0]), Partial.of_values([-0.0])
    left, right = a.merge(b), b.merge(a)
    assert left == right
    assert (left.to_attrs()["lo"], left.to_attrs()["hi"]) == ("-0.0", "0.0")
    assert Partial.of_values([0.0, -0.0]) == Partial.of_values([-0.0, 0.0])


# ----------------------------------------------------------------------
# Summary-served == naive fan-out, for any tree shape
# ----------------------------------------------------------------------
#: The aggregates XPath 1.0 has: the evaluator and the walk answer
#: them too.
XPATH_SHAPES = ("count", "sum")
#: Inner paths over a deployment *zones* deep: value predicates on
#: either step, and ``//`` scans.
DEPLOYMENT_PATHS = (
    "{zones}/sensor/value",
    "{zones}/sensor/value[. > 0]",
    "{zones}/sensor[value < 0]/value",
    "//value",
    "//zone/sensor/value[. != 0]",
    "//sensor[value > 0]/value",
    "//zone//value",
)


@st.composite
def deployments(draw):
    """A random-shape document, a random partition of it, and an inner
    path over it: zones branch irregularly (including empty ones) and
    any zone may be delegated to its own site."""
    depth = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    root = Element("deployment", attrib={"id": "D"})
    assignments = {"root": [(("deployment", "D"),)]}
    site_count = [0]

    def grow(parent, parent_path, level):
        for index in range(rng.randint(0, 3)):
            zone = Element("zone", attrib={"id": f"z{index}"})
            parent.append(zone)
            path = parent_path + ((("zone", f"z{index}")),)
            if rng.random() < 0.4:
                site_count[0] += 1
                assignments[f"site{site_count[0]}"] = [path]
            if level + 1 < depth:
                grow(zone, path, level + 1)
            else:
                for offset in range(rng.randint(0, 3)):
                    sensor = Element("sensor",
                                     attrib={"id": f"s{offset}"})
                    value = draw(values)
                    sensor.append(Element("value", text=repr(value)))
                    zone.append(sensor)

    grow(root, (("deployment", "D"),), 0)
    path = draw(st.sampled_from(DEPLOYMENT_PATHS))
    inner = "/deployment[@id='D']" + path.format(zones="/zone" * depth)
    return root, assignments, inner


@settings(max_examples=25, deadline=None)
@given(deployments(), st.sampled_from(SHAPES))
def test_summary_answers_print_identically_to_naive(scenario, shape):
    root, assignments, inner = scenario
    plan = PartitionPlan(assignments)
    summary_cluster = Cluster(root.copy(), plan)
    served = summary_cluster.scalar(f"{shape}({inner})",
                                    at_site="root", now=10.0)

    # The naive leaf fan-out ground truth: every matched value pulled
    # to one place, aggregated the evaluator's way.
    matches = Evaluator().evaluate(xpath_parser.parse(inner), root,
                                   now=10.0)
    leaf_values = [to_number(node_string_value(node)) for node in matches]
    naive = _naive(shape, leaf_values)
    assert repr(served) == repr(naive)

    # And the distributed walk agrees for the shapes it serves.
    if shape in XPATH_SHAPES:
        walk = Cluster(root.copy(), plan).agents["root"].driver
        assert repr(walk.answer_scalar(f"{shape}({inner})", now=10.0)) \
            == repr(served)


def _naive(shape, leaf_values):
    if shape == "count":
        return float(len(leaf_values))
    if shape == "sum":
        try:
            return float(math.fsum(leaf_values))
        except (OverflowError, ValueError):
            return float(sum(leaf_values))
    if not leaf_values or any(math.isnan(v) for v in leaf_values):
        return float("nan")
    if shape == "avg":
        total = _naive("sum", leaf_values)
        if math.isnan(total) or math.isinf(total):
            return total
        return total / len(leaf_values)
    # The partials' extrema order: -0.0 below 0.0, whatever comes first.
    signed = lambda value: (value, math.copysign(1.0, value))  # noqa: E731
    if shape == "min":
        return float(min(leaf_values, key=signed))
    return float(max(leaf_values, key=signed))


# ----------------------------------------------------------------------
# Freshness: the rollup == the walk == the stripped oracle
# ----------------------------------------------------------------------
#: Inner paths over the three-site deployment: value predicates on
#: either step, and ``//`` scans; the freshness bound goes on the last.
REGION_PATHS = (
    "/region[@id='R']/group/sensor/value",
    "/region[@id='R']/group/sensor/value[. > 5]",
    "/region[@id='R']//value",
    "/region[@id='R']//sensor[value > 5]/value",
)
REGION_SENSORS = [(("region", "R"), ("group", f"g{index // 3}"),
                   ("sensor", f"s{index % 3}")) for index in range(6)]
REGION_OWNERS = {"g0": "mid", "g1": "leaf"}


@st.composite
def freshness_histories(draw):
    """An inner path, a warm-up ask (a rollup, or the path query that
    caches copies; bounded or not), sensor updates after it, and a
    final ask late enough that nothing the warm-up cached can satisfy
    its bound."""
    path = draw(st.sampled_from(REGION_PATHS))
    warm_query = draw(st.booleans())
    warm_at = 1000 + draw(st.integers(0, 30))
    warm_bound = draw(st.one_of(st.none(), st.integers(1, 60)))
    updates = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 60),
                  st.integers(-50, 50)), max_size=6))
    updates = sorted((warm_at + offset, sensor, value)
                     for sensor, offset, value in updates)
    bound = draw(st.integers(1, 60))
    last = updates[-1][0] if updates else warm_at
    ask_at = max(last, warm_at + bound + 1) + draw(st.integers(0, 60))
    return path, warm_query, warm_at, warm_bound, updates, ask_at, bound


@settings(max_examples=30, deadline=None)
@given(freshness_histories())
# An update in the warm-up's clock instant: its stamp must still rise
# above the copy the warm-up cached, or that copy wins the merge.
@example((REGION_PATHS[0], False, 1000, 1, [(1000, 0, 1)], 1002, 1))
def test_bounded_count_and_sum_equal_the_stripped_oracle(history):
    path, warm_query, warm_at, warm_bound, updates, ask_at, bound = history
    values = [10 * (index // 3) + index % 3 for index in range(6)]
    clock = {"now": 1000.0}
    # The rollup is posed at the first, the walk at its twin.
    clusters = [Cluster(three_site_document(
                            lambda group, sensor: 10 * group + sensor),
                        three_site_plan(), clock=lambda: clock["now"])
                for _ in range(2)]
    answer = [clusters[0].agents["top"].answer_scalar,
              clusters[1].agents["top"].driver.answer_scalar]

    clock["now"] = float(warm_at)
    warm = path if warm_bound is None else \
        f"{path}[timestamp() > current-time() - {warm_bound}]"
    for cluster, scalar in zip(clusters, answer):
        if warm_query:
            cluster.query(warm, at_site="top")
        else:
            scalar(f"sum({warm})")
    for at, sensor, value in updates:
        clock["now"] = float(at)
        sensor_path = REGION_SENSORS[sensor]
        values[sensor] = value
        for cluster in clusters:
            cluster.agents[REGION_OWNERS[sensor_path[1][1]]].handle_message(
                UpdateMessage(sensor_path, values={"value": str(value)},
                              sender="sa"))

    clock["now"] = float(ask_at)
    inner = f"{path}[timestamp() > current-time() - {bound}]"
    document = three_site_document(
        lambda group, sensor: values[3 * group + sensor])
    for shape in XPATH_SHAPES:
        oracle = Evaluator().evaluate(
            strip_consistency_predicates(xpath_parser.parse(
                f"{shape}({inner})")), document)
        answers = [scalar(f"{shape}({inner})") for scalar in answer]
        assert answers == [oracle, oracle], (shape, answers, oracle)


#: Each group's values, asked at the group's owner.
OWNED_VALUES = "/region[@id='R']/group[@id='{group}']/sensor/value"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
                min_size=1, max_size=6),
       st.sampled_from(("count", "sum", "max")))
def test_an_owner_answers_its_own_updates_unbounded(updates, shape):
    """Summaries at every level, then updates in the same clock instant:
    each owner's next unbounded ask over its own group shows them."""
    values = [10 * (index // 3) + index % 3 for index in range(6)]
    cluster = Cluster(three_site_document(
                          lambda group, sensor: 10 * group + sensor),
                      three_site_plan(), clock=lambda: 1000.0)
    cluster.scalar(f"{shape}(/region[@id='R']/group/sensor/value)",
                   at_site="top")
    for group, owner in REGION_OWNERS.items():
        cluster.scalar(f"{shape}({OWNED_VALUES.format(group=group)})",
                       at_site=owner)
    for sensor, value in updates:
        sensor_path = REGION_SENSORS[sensor]
        values[sensor] = value
        cluster.agents[REGION_OWNERS[sensor_path[1][1]]].handle_message(
            UpdateMessage(sensor_path, values={"value": str(value)},
                          sender="sa"))
        for group, owner in REGION_OWNERS.items():
            owned = values[3 * int(group[1]):][:3]
            oracle = {"count": 3.0, "sum": float(sum(owned)),
                      "max": float(max(owned))}[shape]
            query = f"{shape}({OWNED_VALUES.format(group=group)})"
            assert cluster.scalar(query, at_site=owner) == oracle, (
                query, values)


# ----------------------------------------------------------------------
# Mixed caches: a rollup counts each node once, whatever copies it meets
# ----------------------------------------------------------------------
#: Inner paths over nested zones with sensors at every level: scans
#: that meet cached copies inside the regions they ask for.
NESTED_PATHS = (
    "//value",
    "//zone/sensor/value",
    "/zone/zone/sensor/value",
    "//sensor[value > 0]/value",
    "/zone//sensor/value[. > 0]",
    "//zone//value",
    "//sensor/@w",
)


def _nested_deployment(rng):
    """Zones three deep, sensors (some weighted) at every level, and
    each zone delegated to its own site with probability 0.45."""
    root = Element("deployment", attrib={"id": "D"})
    assignments = {"root": [(("deployment", "D"),)]}
    sensors, zones = [], []

    def grow(parent, path, level):
        for _ in range(rng.randint(0, 2) if level else 1):
            attrib = {"id": f"s{len(sensors)}"}
            if rng.random() < 0.7:
                attrib["w"] = str(rng.randint(0, 3))
            sensor = Element("sensor", attrib=attrib)
            sensor.append(Element("value", text=str(rng.randint(-3, 5))))
            parent.append(sensor)
            sensors.append(path + (("sensor", attrib["id"]),))
        for _ in range(rng.randint(1, 2) if level < 3 else 0):
            zone_path = path + (("zone", f"z{len(zones)}"),)
            zones.append(zone_path)
            zone = Element("zone", attrib={"id": zone_path[-1][1]})
            parent.append(zone)
            if rng.random() < 0.45:
                assignments[f"site{len(assignments)}"] = [zone_path]
            grow(zone, zone_path, level + 1)

    grow(root, (("deployment", "D"),), 0)
    return root, assignments, sensors, zones


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_rollups_over_mixed_caches_equal_the_oracle(seed):
    """Path queries leave copies of every age at every site, and
    updates restamp sensors without changing a value: any rollup,
    bounded or not, at any site, must then equal the oracle.  A match
    the walk makes inside a region whose partial counts it too would
    show as a double count, one dropped that no partial counts as a
    shortfall."""
    rng = random.Random(seed)
    root, assignments, sensors, zones = _nested_deployment(rng)
    document = root.copy()
    clock = {"now": 1000.0}
    cluster = Cluster(root, PartitionPlan(assignments),
                      clock=lambda: clock["now"])
    sites = sorted(cluster.agents)

    def pinned(path):
        return "".join(f"/{tag}[@id='{name}']" for tag, name in path)

    def owner_of(path):
        return next(cluster.owner_map[path[:cut]]
                    for cut in range(len(path), 0, -1)
                    if path[:cut] in cluster.owner_map)

    for _ in range(16):
        clock["now"] += rng.choice([1, 5, 20])
        bound = f"[timestamp() > current-time() - {rng.choice([3, 30])}]"
        roll = rng.random()
        if roll < 0.3:
            path = rng.choice(sensors)
            owner = owner_of(path)
            value = cluster.agents[owner].database.find(path).child("value")
            cluster.agents[owner].handle_message(UpdateMessage(
                path, values={"value": value.text}, sender="sa"))
        elif roll < 0.65:
            query = rng.choice([pinned(rng.choice(sensors)),
                                pinned(rng.choice(zones)) + "//value",
                                "/deployment[@id='D']//sensor"])
            cluster.query(query + rng.choice(["", bound]),
                          at_site=rng.choice(sites))
        else:
            path = "/deployment[@id='D']" + rng.choice(NESTED_PATHS)
            step = rng.choice(["", bound])
            inner = path.replace("/@w", step + "/@w") \
                if path.endswith("/@w") else path + step
            for shape in XPATH_SHAPES:
                query = f"{shape}({inner})"
                oracle = Evaluator().evaluate(strip_consistency_predicates(
                    xpath_parser.parse(query)), document)
                served = cluster.scalar(query, at_site=rng.choice(sites))
                assert repr(served) == repr(oracle), (seed, query)
