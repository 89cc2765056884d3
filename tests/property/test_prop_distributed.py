"""The flagship properties: distribution transparency and invariants.

For random hierarchical documents, random ownership partitions and
random queries, the distributed system must return exactly the answer a
centralized evaluation of the same query over the global document
returns -- and every site database must satisfy the storage invariants
before, during and after arbitrary query/caching activity.
"""

import itertools
import operator
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core import PartitionPlan
from repro.core.idable import id_path_of
from repro.core.invariants import structural_violations
from repro.core.status import Status, get_status
from repro.net import Cluster, OAConfig
from repro.net.messages import UpdateMessage
from repro.xmlkit import Element, canonical_form, parse_fragment
from repro.xpath import parse
from repro.xpath.evaluator import Evaluator

_LEVELS = ["top", "mid", "leaf"]
_SITES = ["s0", "s1", "s2", "s3"]


@st.composite
def hierarchical_documents(draw, grouped=st.just(False)):
    """Random 3-level documents with IDable structure + value fields.
    Where *grouped* draws true, every mid holds its leaves in one or two
    IDable ``group`` nodes: a fourth level, between mid and leaf."""
    root = Element("top", attrib={"id": "R"})
    n_mid = draw(st.integers(1, 3))
    with_groups = draw(grouped)
    for mid_index in range(n_mid):
        mid = Element("mid", attrib={"id": f"m{mid_index}"})
        root.append(mid)
        mid.append(Element("meta", text=str(draw(st.integers(0, 3)))))
        parents = [mid]
        if with_groups:
            parents = [Element("group", attrib={"id": f"g{index}"})
                       for index in range(draw(st.integers(1, 2)))]
            for group in parents:
                mid.append(group)
        for parent in parents:
            for leaf_index in range(draw(st.integers(0, 3))):
                leaf = Element("leaf", attrib={"id": f"l{leaf_index}"})
                leaf.append(Element("value",
                                    text=str(draw(st.integers(0, 4)))))
                parent.append(leaf)
    return root


def _leaf_step(document):
    """The steps from a mid to its leaves."""
    grouped = any(mid.element_children("group")
                  for mid in document.element_children("mid"))
    return "/group/leaf" if grouped else "/leaf"


@st.composite
def partitions(draw, document):
    """A random ownership plan over *document* (root always owned)."""
    assignments = {site: [] for site in _SITES}
    assignments[draw(st.sampled_from(_SITES))].append((("top", "R"),))

    def assign(parent, path):
        """Maybe give each IDable child its own owner, and so on down."""
        for child in parent.element_children():
            if child.id is not None and draw(st.booleans()):
                child_path = path + ((child.tag, child.id),)
                assignments[draw(st.sampled_from(_SITES))].append(child_path)
                assign(child, child_path)

    assign(document, (("top", "R"),))
    return PartitionPlan(assignments)


@st.composite
def queries(draw, document):
    mids = [m.id for m in document.element_children("mid")] or ["m0"]
    mid = draw(st.sampled_from(mids))
    leaf = _leaf_step(document)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return f"/top[@id='R']/mid[@id='{mid}']"
    if kind == 1:
        return f"/top[@id='R']/mid[@id='{mid}']{leaf}"
    if kind == 2:
        value = draw(st.integers(0, 4))
        return (f"/top[@id='R']/mid[@id='{mid}']"
                f"{leaf}[value='{value}']")
    if kind == 3:
        other = draw(st.sampled_from(mids))
        return f"/top[@id='R']/mid[@id='{mid}' or @id='{other}']{leaf}"
    if kind == 4:
        value = draw(st.integers(0, 4))
        return f"/top[@id='R']//leaf[value='{value}']"
    return f"/top[@id='R']/mid[@id='{mid}']/meta"


def _costed(cluster, query, at_site=None):
    """``cluster.query``'s return and its ``(messages, asks, bytes)``;
    message ids restart per call, so equal traffic has equal bytes."""
    traffic = cluster.network.traffic
    before = (traffic.messages, _asks(cluster), traffic.bytes)
    with mock.patch("repro.net.messages._SEQUENCE", itertools.count(1)):
        answer = cluster.query(query, at_site=at_site)
    after = (traffic.messages, _asks(cluster), traffic.bytes)
    return answer, tuple(map(operator.sub, after, before))


def _asks(cluster):
    return sum(agent.stats["subqueries_sent"]
               for agent in cluster.agents.values())


def _normalized(element):
    clone = element.copy()
    for node in clone.iter():
        node.delete_attribute("timestamp")
    return canonical_form(clone)


def reference_answer(document, query):
    matches = Evaluator().evaluate(
        __import__("repro.xpath.parser", fromlist=["parse"]).parse(query),
        document, now=0.0)
    return sorted(_normalized(m) for m in matches)


@st.composite
def scenarios(draw, grouped=st.just(False)):
    document = draw(hierarchical_documents(grouped))
    plan = draw(partitions(document))
    query_list = draw(st.lists(queries(document), min_size=1, max_size=4))
    return document, plan, query_list


@st.composite
def nested_queries(draw, document):
    """A query over *document* with nesting depth > 0."""
    mid = draw(st.sampled_from([m.id for m in
                                document.element_children("mid")]))
    value = draw(st.integers(0, 4))
    return draw(st.sampled_from([
        f"/top[@id='R']/mid[./leaf[value='{value}']]/meta",
        f"/top[@id='R']/mid[@id='{mid}']/leaf[not(value > ../leaf/value)]",
        f"/top[@id='R'][./mid[@id='{mid}']/leaf]/mid",
    ]))


@st.composite
def nested_scenarios(draw):
    """A scenario whose one query has nesting depth > 0."""
    document = draw(hierarchical_documents())
    plan = draw(partitions(document))
    return document, plan, draw(nested_queries(document))


#: A group owned apart from its mid, asked for by the mid's owner: a
#: repeat asks for the group again, not for each leaf that failed.
_GROUPED = (
    parse_fragment("<top id='R'><mid id='m0'><meta>0</meta><group id='g0'>"
                   "<leaf id='l0'><value>0</value></leaf>"
                   "<leaf id='l1'><value>1</value></leaf>"
                   "<leaf id='l2'><value>2</value></leaf></group></mid></top>"),
    PartitionPlan({"s0": [(("top", "R"), ("mid", "m0"))],
                   "s1": [(("top", "R"),),
                          (("top", "R"), ("mid", "m0"), ("group", "g0"))]}),
    ["/top[@id='R']/mid[@id='m0']/group/leaf[value='1']"],
)


class TestDistributionTransparency:
    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_distributed_equals_centralized(self, scenario):
        document, plan, query_list = scenario
        cluster = Cluster(document.copy(), plan, service="prop")
        for query in query_list:
            results, _site, _outcome = cluster.query(query)
            got = sorted(_normalized(r) for r in results)
            assert got == reference_answer(document, query), query

    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_after_query_sequences(self, scenario):
        document, plan, query_list = scenario
        cluster = Cluster(document.copy(), plan, service="prop")
        for query in query_list:
            cluster.query(query)
            for site in cluster.sites:
                assert structural_violations(cluster.database(site)) == []

    @given(scenarios(grouped=st.booleans()))
    @example(_GROUPED)
    @settings(max_examples=100, deadline=None)
    def test_repeat_query_returns_same_answer(self, scenario):
        """A repeat returns the same answer and costs no more than the
        first posing: no more messages, asks or bytes."""
        document, plan, query_list = scenario
        cluster = Cluster(document.copy(), plan, service="prop",
                          count_bytes=True)
        query = query_list[0]
        (first, site, _), first_cost = _costed(cluster, query)
        (second, _, _), second_cost = _costed(cluster, query, at_site=site)
        assert sorted(_normalized(r) for r in first) == \
            sorted(_normalized(r) for r in second)
        assert all(map(operator.le, second_cost, first_cost)), \
            (query, first_cost, second_cost)

    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_eviction_preserves_correctness(self, scenario):
        document, plan, query_list = scenario
        cluster = Cluster(document.copy(), plan, service="prop")
        query = query_list[-1]
        expected = reference_answer(document, query)
        cluster.query(query)
        for site in cluster.sites:
            cluster.database(site).evict_all_cached()
            assert structural_violations(cluster.database(site)) == []
        results, _, _ = cluster.query(query)
        assert sorted(_normalized(r) for r in results) == expected

    @given(nested_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_nested_queries_equal_centralized(self, scenario):
        """Nested predicates fetch the subtree at their earliest
        referenced tag; the answer, asked twice, is the centralized one."""
        document, plan, query = scenario
        cluster = Cluster(document.copy(), plan, service="prop")
        expected = reference_answer(document, query)
        first, site, _ = cluster.query(query)
        second, _, _ = cluster.query(query, at_site=site)
        assert sorted(_normalized(r) for r in first) == expected, query
        assert sorted(_normalized(r) for r in second) == expected, query


@st.composite
def fresh_scenarios(draw):
    """A scenario on an injected clock: sensor updates between queries,
    each query bounded to *bound* seconds on its last step."""
    document = draw(hierarchical_documents())
    sensors = []
    for mid in document.element_children("mid"):
        mid_path = (("top", "R"), ("mid", mid.id))
        sensors.append((mid_path, "meta"))
        for leaf in mid.element_children("leaf"):
            # A detached answer is known by its id alone: make leaf ids
            # unique document-wide (no query names one).
            leaf.set("id", f"{mid.id}-{leaf.id}")
            sensors.append((mid_path + (("leaf", leaf.id),), "value"))
    plan = draw(partitions(document))
    bound = draw(st.sampled_from([5, 28, 30]))
    update = st.tuples(st.just("update"), st.sampled_from(sensors),
                       st.integers(0, 4))
    query = st.tuples(st.just("query"), queries(document),
                      st.integers(0, len(_SITES) - 1))
    steps = draw(st.lists(
        st.tuples(st.integers(0, 2 * bound), st.one_of(update, query)),
        min_size=1, max_size=10))
    return document, plan, bound, steps


def _held(history, opening, now, bound):
    """The values a sensor held at some instant of ``[now - bound, now]``."""
    held = set()
    for when, value in history:
        if when <= now - bound:
            opening = value
        else:
            held.add(value)
    return held | {opening}


def bound_violations(document, query, results, histories, now, bound):
    """``benchmarks/layers/oracle.py::FreshnessOracle``'s rule, restated.

    Every answer shows only values its node held at some instant of the
    last *bound* seconds, and holds every node that matched throughout
    them.  *query* is unbounded; its last step selects ``leaf`` (by
    ``value``), ``mid`` or the mid's ``meta``.
    """
    prefix, last = query.rsplit("/", 1)
    tag = last.split("[", 1)[0]
    wanted = last.split("'")[1] if tag == "leaf" and "[" in last else None
    evaluate = Evaluator().evaluate
    if tag == "leaf":
        nodes, field = evaluate(parse(prefix + "/leaf"), document), "value"
    else:
        nodes = evaluate(parse(query if tag == "mid" else prefix), document)
        field = "meta"
    held = {
        node.id: _held(histories.get(tuple(id_path_of(node)), ()),
                       node.child(field).text, now, bound)
        for node in nodes
    }
    problems = []
    seen = set()
    for result in results:
        if tag == "meta":
            [key] = held
            shown = result.text
        else:
            key, shown = result.id, result.child(field).text
        if key in seen:
            problems.append(f"{key} returned twice")
        seen.add(key)
        if key not in held or shown not in held[key]:
            problems.append(f"{key} shows {shown!r}, held none of the "
                            f"last {bound} s")
        elif wanted is not None and shown != wanted:
            problems.append(f"{key} shows {shown!r}, not {wanted!r}")
    for key, values in held.items():
        if key not in seen and (wanted is None or values == {wanted}):
            problems.append(f"{key} matched throughout but is missing")
    return problems


class _Clock:
    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now


class TestFreshnessBound:
    @given(fresh_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_answers_keep_to_the_bound(self, scenario):
        document, plan, bound, steps = scenario
        clock = _Clock(1000.0)
        cluster = Cluster(document.copy(), plan, service="prop", clock=clock,
                          oa_config=OAConfig(executor="threaded"))
        sites = sorted(cluster.sites)
        histories = {}
        for advance, (kind, what, value) in steps:
            clock.now += advance
            if kind == "update":
                path, field = what
                [owner] = [site for site in sites
                           if _owns(cluster.database(site), path)]
                reply = cluster.agent(owner).handle_message(UpdateMessage(
                    path, values={field: str(value)}, sender="client"))
                assert reply.ok
                histories.setdefault(path, []).append((clock.now, str(value)))
                continue
            bounded = what + f"[timestamp() > current-time() - {bound}]"
            results, _, outcome = cluster.query(
                bounded, at_site=sites[value % len(sites)])
            assert outcome.complete
            assert bound_violations(document, what, results, histories,
                                    clock.now, bound) == [], bounded


def _owns(database, path):
    node = database.find(path)
    return node is not None and get_status(node) is Status.OWNED


class TestWireFragmentInvariants:
    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_qeg_answers_satisfy_c1_c2(self, scenario):
        """Every wire fragment a site emits is cacheable by construction:
        it passes the C1/C2 structural checks against the ground truth."""
        from repro.core import compile_pattern, fragment_violations, run_qeg

        document, plan, query_list = scenario
        databases = plan.partition(document)[1]
        for query in query_list:
            for db in databases.values():
                result = run_qeg(db, compile_pattern(query))
                if result.answer is not None:
                    assert fragment_violations(result.answer,
                                               document) == []

    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_merging_any_answer_anywhere_is_safe(self, scenario):
        """Any site's answer merges into any other site's database
        without breaking the storage invariants."""
        from repro.core import compile_pattern, run_qeg
        from repro.core.invariants import (
            structural_violations,
            violations_against_reference,
        )

        document, plan, query_list = scenario
        databases = plan.partition(document)[1]
        sites = sorted(databases)
        for query in query_list[:2]:
            for producer in sites:
                result = run_qeg(databases[producer],
                                 compile_pattern(query))
                if result.answer is None:
                    continue
                for consumer in sites:
                    databases[consumer].store_fragment(result.answer.copy())
        for site in sites:
            assert structural_violations(databases[site]) == []
            assert violations_against_reference(databases[site],
                                                document) == []
