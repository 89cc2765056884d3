"""Differential properties: an id pin is a dictionary test.

PR 23 lets ``[@id='a']`` be decided by ``attrib.get("id") in pinned``
in the QEG walker and in the XPath evaluator, and works IDability out
once per parent.  Every shortcut is checked here against the definition
it shortcuts:

(a) ``pinned_ids`` is sound -- whenever the generic evaluator holds the
    predicates true for a node, the node is an element whose id is in
    the pinned set -- and, with ``exact=True``, complete as well;
(b) ``Evaluator.evaluate`` of a step returns the nodes, in the order,
    that evaluating the same predicates node by node selects;
(c) ``run_qeg`` with the items' ``pinned_ids`` blanked (a test-side
    patch; there is no production switch) gives byte-equal answers, the
    same subqueries in the same order, equal stats and an equal EXPLAIN
    decision log;
(d) ``idable_children`` / ``_locally_idable`` / the walker's per-parent
    set agree with the definitions as they stood before the change,
    kept below verbatim.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import CoreError, SensorDatabase, compile_pattern
from repro.core.idable import (
    _locally_idable,
    idable_child_map,
    idable_children,
    node_id,
    non_idable_children,
)
from repro.core.qeg import _Walker
from repro.obs.explain import ExplainObserver
from repro.xmlkit import Element, Text, parse_fragment, serialize
from repro.xpath import parse
from repro.xpath.analysis import pinned_ids
from repro.xpath.evaluator import Context, Evaluator
from repro.xpath.types import to_boolean

from tests.property.test_prop_answer_builder import site_trees

_EVALUATOR = Evaluator()

#: Ids include the empty string, one that reads as a number, and two
#: that need escaping on the wire (``&apos;`` / ``&amp;``).
_IDS = ("a", "b", "3", "", "it's", "x&y")


def _literal(value):
    return f'"{value}"' if "'" in value else f"'{value}'"


# ----------------------------------------------------------------------
# The definitions the shortcuts replace
# ----------------------------------------------------------------------
def _generic(predicates, node):
    """The predicates, conjoined, by the evaluator's general path only."""
    with mock.patch("repro.xpath.evaluator.pinned_ids",
                    lambda predicates, exact=False: None):
        return all(
            to_boolean(_EVALUATOR._eval(
                p, Context(node, functions=_EVALUATOR.functions)))
            for p in predicates)


def _reference_locally_idable(element):
    if isinstance(element, Text):
        return False
    identifier = element.attrib.get("id")
    if identifier is None:
        return False
    parent = element.parent
    if parent is None:
        return True
    count = sum(
        1
        for sibling in parent.element_children(element.tag)
        if sibling.attrib.get("id") == identifier
    )
    return count == 1


def _reference_idable_children(element):
    seen = {}
    for child in element.element_children():
        identifier = child.attrib.get("id")
        if identifier is None:
            continue
        seen.setdefault((child.tag, identifier), []).append(child)
    return [members[0] for members in seen.values() if len(members) == 1]


# ----------------------------------------------------------------------
# Strategies (small, bounded domains: shrinking stays readable)
# ----------------------------------------------------------------------
_ID_VALUES = st.sampled_from(_IDS)


@st.composite
def _atoms(draw):
    value = _literal(draw(_ID_VALUES))
    if draw(st.booleans()):  # half of all atoms are pins
        return draw(st.sampled_from((f"@id = {value}", f"{value} = @id")))
    return draw(st.sampled_from((
        f"@id != {value}", f"not(@id = {value})",
        "@id = 3", "3 = @id", "@id",
        f"@zone = {value}", f"v = {value}", "@id = @zone",
        f"n[@id = {value}]", f"../n/@id = {value}",
        "true()", "false()",
    )))


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: f"({p[0]} or {p[1]})"),
        st.tuples(children, children).map(lambda p: f"({p[0]} and {p[1]})"),
    )


_PREDICATES = st.recursive(_atoms(), _combine, max_leaves=4)
_PREDICATE_LISTS = st.lists(_PREDICATES, min_size=1, max_size=3)


@st.composite
def sibling_sets(draw):
    """A parent whose children mix duplicate, missing, empty and
    escape-needing ids with text nodes, read back off the wire."""
    parent = Element("p", attrib={"id": "P"})
    for serial in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("n", "n", "m", "text", "v")))
        if kind == "text":
            parent.append(Text(f"t{serial}"))
            continue
        if kind == "v":
            parent.append(Element("v", text=draw(_ID_VALUES)))
            continue
        child = Element(kind)
        if draw(st.integers(0, 4)):
            child.set("id", draw(_ID_VALUES))
        if draw(st.booleans()):
            child.set("zone", draw(_ID_VALUES))
        if draw(st.booleans()):
            child.append(Element("v", text=draw(_ID_VALUES)))
        if draw(st.booleans()):
            child.append(Element("n", attrib={"id": draw(_ID_VALUES)}))
        parent.append(child)
    return parse_fragment(serialize(parent, use_cache=False))


def _passes(pinned, node):
    return isinstance(node, Element) and node.attrib.get("id") in pinned


class TestPinnedIdsAgainstTheEvaluator:
    @given(_PREDICATE_LISTS, sibling_sets())
    @settings(max_examples=300, deadline=None)
    def test_a_pin_is_necessary_and_an_exact_pin_sufficient(self, sources,
                                                            parent):
        predicates = [parse(source) for source in sources]
        necessary = pinned_ids(predicates)
        exact = pinned_ids(predicates, exact=True)
        assert exact is None or exact == necessary
        for node in parent.children:
            holds = _generic(predicates, node)
            if necessary is not None and holds:
                assert _passes(necessary, node), (sources, node)
            if exact is not None:
                assert holds == _passes(exact, node), (sources, node)

    @given(st.lists(_ID_VALUES, min_size=1, max_size=3), st.booleans(),
           sibling_sets())
    @settings(max_examples=100, deadline=None)
    def test_every_spelling_of_a_pure_pin_is_exact(self, values, flipped,
                                                   parent):
        tests = [f"{_literal(v)} = @id" if flipped else f"@id = {_literal(v)}"
                 for v in values]
        disjunction = [parse(" or ".join(tests))]
        conjunction = [parse(" and ".join(tests))]
        assert pinned_ids(disjunction, exact=True) == frozenset(values)
        chained = pinned_ids(conjunction, exact=True)
        assert chained == (frozenset(values) if len(set(values)) == 1
                           else frozenset())
        for node in parent.children:
            assert _generic(disjunction, node) == \
                _passes(frozenset(values), node)
            assert _generic(conjunction, node) == _passes(chained, node)

    @given(st.sampled_from(("n", "m", "*", "node()", "text()")),
           _PREDICATE_LISTS, sibling_sets())
    @settings(max_examples=300, deadline=None)
    def test_a_step_selects_what_per_node_evaluation_selects(
            self, node_test, sources, parent):
        step = node_test + "".join(f"[{source}]" for source in sources)
        predicates = [parse(source) for source in sources]
        candidates = _EVALUATOR.evaluate(parse(node_test), parent)
        expected = [node for node in candidates
                    if _generic(predicates, node)]
        selected = _EVALUATOR.evaluate(parse(step), parent)
        assert [id(node) for node in selected] == \
            [id(node) for node in expected], step


# ----------------------------------------------------------------------
# (c) the walk, with and without the pins
# ----------------------------------------------------------------------
class _Schema:
    """Just enough schema for ``compile_pattern``: ``v`` and ``meta``
    are content, so ``[v='0']`` is a plain predicate, not a nested one."""

    @staticmethod
    def is_idable_tag(tag):
        return tag in ("root", "n", "m")


_STEP_PREDICATES = (
    "", "", "[@id='0']", "[@id='1']", "['0'=@id]", "[@id='0' or @id='2']",
    "[@id='1'][@zone='z1']", "[@id='0' and @zone='z2']", "[@id!='0']",
    "[not(@id='1')]", "[@id=1]", "[@id='0' or @zone='z1']", "[v='0']",
    "[@id='0'][v='0']", "[@id='twin']", "[@id='0'][./m/v='0']",
    "[@id='1' and ./n[@id='0']]", "[@id='0'][../n[@id='1']]",
    "[@id='0'][timestamp() > current-time() - 5]",
)


@st.composite
def _queries(draw):
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        steps.append(draw(st.sampled_from(("/", "/", "/", "//")))
                     + draw(st.sampled_from(("n", "m", "*")))
                     + draw(st.sampled_from(_STEP_PREDICATES)))
    tail = draw(st.sampled_from(("", "", "/v", "/text()", "/meta/sub")))
    root = draw(st.sampled_from(("[@id='R']", "", "[@id='R' or @id='Q']",
                                 "[@id='Q']")))
    return "/root" + root + "".join(steps) + tail


def _walk(tree, pattern):
    """Everything one QEG pass lets an outsider see."""
    observer = ExplainObserver()
    walker = _Walker(SensorDatabase(tree, clock=lambda: 10.0), pattern, 10.0,
                     observer=observer)
    try:
        result = walker.run()
    except (CoreError, TypeError) as error:
        # TypeError: a fetch-subtree collect point that lands on a node
        # without an id has no id path to ask for (a seed defect the
        # generated queries reach; both walks must fail alike).
        return (type(error).__name__, str(error))
    return (
        None if result.answer is None
        else serialize(result.answer, use_cache=False),
        [(s.query, s.reason, s.consumed, s.subtree, s.descendant_gap,
          tuple(s.anchor_path))
         for s in result.subqueries],
        result.stats,
        observer.decisions,
    )


class TestTheWalkDoesNotDependOnThePins:
    @given(site_trees(), _queries(), st.sampled_from((None, _Schema)))
    @settings(max_examples=400, deadline=None)
    def test_same_answer_subqueries_stats_and_explain(self, tree, query,
                                                      schema):
        before = serialize(tree, use_cache=False)
        pinned = compile_pattern(query, schema, use_cache=False)
        blank = compile_pattern(query, schema, use_cache=False)
        for item in blank.items:
            item.pinned_ids = None
        assert _walk(tree, pinned) == _walk(tree, blank), query
        assert serialize(tree, use_cache=False) == before


# ----------------------------------------------------------------------
# (d) IDability, one pass per parent
# ----------------------------------------------------------------------
def _assert_idability_agrees(tree):
    walker = _Walker(SensorDatabase(tree), compile_pattern("/root"), None)
    for element in tree.iter():
        expected = _reference_idable_children(element)
        assert [id(c) for c in idable_children(element)] == \
            [id(c) for c in expected]
        keyed = idable_child_map(element)
        assert [c for c in keyed.values() if c is not None] == expected
        assert all(node_id(c) == key for key, c in keyed.items()
                   if c is not None)
        idable = {id(c) for c in expected}
        assert [id(c) for c in non_idable_children(element)] == \
            [id(c) for c in element.children if id(c) not in idable]
        for node in [element, *element.children]:
            assert _locally_idable(node) == _reference_locally_idable(node)
            assert walker._locally_idable(node) == \
                _reference_locally_idable(node)


class TestIdabilityMatchesTheDefinition:
    @given(site_trees())
    @settings(max_examples=150, deadline=None)
    def test_on_site_fragments(self, tree):
        _assert_idability_agrees(tree)

    @given(sibling_sets())
    @settings(max_examples=150, deadline=None)
    def test_on_sibling_sets_with_duplicate_and_missing_ids(self, parent):
        root = Element("root", attrib={"id": "R"})
        root.append(parent)
        _assert_idability_agrees(root)
