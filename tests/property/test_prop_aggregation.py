"""Property: the partial-aggregate algebra is a commutative monoid,
and summary-served answers equal the naive fan-out byte-for-byte.

The hierarchy's correctness rests on three algebraic facts the rollup
tree exploits freely -- merge order never matters (children reply in
any order), merge grouping never matters (interior sites pre-merge),
and a duplicated reply changes nothing -- plus two end-to-end facts:
for *any* tree shape and *any* partition of it over sites, an
aggregate answered through summaries prints identically to the same
aggregate computed by naive leaf fan-out; and under any freshness bound
and any update history, both equal the consistency-stripped query over
the one logical document.
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

from repro.agg import (
    AggregationConfig,
    Partial,
    SHAPES,
    collapse,
    merge_states,
    state_of,
)
from repro.core import PartitionPlan
from repro.core.consistency import strip_consistency_predicates
from repro.net import Cluster
from repro.net.messages import UpdateMessage
from repro.smoke import three_site_document, three_site_plan
from repro.xmlkit import Element
from repro.xpath.evaluator import Evaluator
from repro.xpath import parser as xpath_parser
from repro.xpath.types import node_string_value, to_number

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

REGIONS = [
    (("region", "R"),),
    (("region", "R"), ("group", "g0")),
    (("region", "R"), ("group", "g1")),
    (("region", "R"), ("group", "g1"), ("sensor", "s3")),
]

states = st.dictionaries(
    st.sampled_from(REGIONS),
    st.tuples(value_lists.map(Partial.of_values),
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False)),
    max_size=4,
)


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


class TestStateAlgebra:
    @given(states, states)
    def test_commutative(self, a, b):
        assert merge_states(a, b) == merge_states(b, a)

    @given(states, states, states)
    def test_associative(self, a, b, c):
        assert merge_states(merge_states(a, b), c) == \
            merge_states(a, merge_states(b, c))

    @given(states)
    def test_duplicate_safe(self, a):
        assert merge_states(a, a) == a

    @given(states, states)
    def test_collapse_ignores_merge_order(self, a, b):
        left, left_ts = collapse(merge_states(a, b), now=0.0)
        right, right_ts = collapse(merge_states(b, a), now=0.0)
        assert left == right
        assert left_ts == right_ts


def test_signed_zero_extrema_ignore_merge_order():
    """The shrunk ``test_collapse_ignores_merge_order`` case: ``0.0``
    and ``-0.0`` compare equal, so plain ``min``/``max`` kept whichever
    came first."""
    a = state_of(REGIONS[0], Partial.of_values([0.0]), 0.0)
    b = state_of(REGIONS[1], Partial.of_values([-0.0]), 0.0)
    left, _ = collapse(merge_states(a, b), now=0.0)
    right, _ = collapse(merge_states(b, a), now=0.0)
    assert left == right
    assert (left.to_attrs()["lo"], left.to_attrs()["hi"]) == ("-0.0", "0.0")
    assert Partial.of_values([0.0, -0.0]) == Partial.of_values([-0.0, 0.0])


# ----------------------------------------------------------------------
# Summary-served == naive fan-out, for any tree shape
# ----------------------------------------------------------------------
@st.composite
def deployments(draw):
    """A random-shape document, a random partition of it, and the
    query depth: zones branch irregularly (including empty ones) and
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
    query_tail = "/zone" * depth + "/sensor/value"
    return root, assignments, f"/deployment[@id='D']{query_tail}"


@settings(max_examples=25, deadline=None)
@given(deployments(), st.sampled_from(SHAPES))
def test_summary_answers_print_identically_to_naive(scenario, shape):
    root, assignments, inner = scenario
    plan = PartitionPlan(assignments)
    summary_cluster = Cluster(root.copy(), plan,
                              subsystems=[AggregationConfig()])
    served = summary_cluster.scalar(f"{shape}({inner})",
                                    at_site="root", now=10.0)

    # The naive leaf fan-out ground truth: every matched value pulled
    # to one place, aggregated the evaluator's way.
    matches = Evaluator().evaluate(xpath_parser.parse(inner), root,
                                   now=10.0)
    leaf_values = [to_number(node_string_value(node)) for node in matches]
    naive = _naive(shape, leaf_values)
    assert repr(served) == repr(naive)

    # And the distributed naive path agrees for the shapes it serves.
    if shape in ("count", "sum"):
        naive_cluster = Cluster(root.copy(), plan)
        assert repr(naive_cluster.scalar(f"{shape}({inner})",
                                         at_site="root", now=10.0)) \
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
# Freshness: aggregation on == off == the stripped oracle
# ----------------------------------------------------------------------
SMOKE_VALUES = "/region[@id='R']/group/sensor/value"
SMOKE_SENSORS = [(("region", "R"), ("group", f"g{index // 3}"),
                  ("sensor", f"s{index % 3}")) for index in range(6)]
SMOKE_OWNERS = {"g0": "mid", "g1": "leaf"}


@st.composite
def freshness_histories(draw):
    """A warm-up ask, sensor updates after it, and a final ask late
    enough that nothing the warm-up cached can satisfy its bound."""
    warm_at = 1000 + draw(st.integers(0, 30))
    warm_bound = draw(st.integers(1, 60))
    updates = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 60),
                  st.integers(-50, 50)), max_size=6))
    updates = sorted((warm_at + offset, sensor, value)
                     for sensor, offset, value in updates)
    bound = draw(st.integers(1, 60))
    last = updates[-1][0] if updates else warm_at
    ask_at = max(last, warm_at + bound + 1) + draw(st.integers(0, 60))
    return warm_at, warm_bound, updates, ask_at, bound


@settings(max_examples=30, deadline=None)
@given(freshness_histories())
# An update in the warm-up's clock instant: its stamp must still rise
# above the copy the warm-up cached, or that copy wins the merge.
@example((1000, 1, [(1000, 0, 1)], 1002, 1))
def test_bounded_count_and_sum_equal_the_stripped_oracle(history):
    warm_at, warm_bound, updates, ask_at, bound = history
    values = [10 * (index // 3) + index % 3 for index in range(6)]
    clock = {"now": 1000.0}
    clusters = [Cluster(three_site_document(
                            lambda group, sensor: 10 * group + sensor),
                        three_site_plan(), clock=lambda: clock["now"],
                        subsystems=subsystems)
                for subsystems in ([AggregationConfig()], [])]

    clock["now"] = float(warm_at)
    for cluster in clusters:
        cluster.scalar(f"sum({SMOKE_VALUES}[timestamp() > "
                       f"current-time() - {warm_bound}])", at_site="top")
    for at, sensor, value in updates:
        clock["now"] = float(at)
        path = SMOKE_SENSORS[sensor]
        values[sensor] = value
        for cluster in clusters:
            cluster.agents[SMOKE_OWNERS[path[1][1]]].handle_message(
                UpdateMessage(path, values={"value": str(value)},
                              sender="sa"))

    clock["now"] = float(ask_at)
    inner = f"{SMOKE_VALUES}[timestamp() > current-time() - {bound}]"
    document = three_site_document(
        lambda group, sensor: values[3 * group + sensor])
    for shape in ("count", "sum"):
        oracle = Evaluator().evaluate(
            strip_consistency_predicates(xpath_parser.parse(
                f"{shape}({inner})")), document)
        answers = [cluster.scalar(f"{shape}({inner})", at_site="top")
                   for cluster in clusters]
        assert answers == [oracle, oracle], (shape, answers, oracle)
