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
    decision log: where an ask is anchored reads the id predicates, not
    the pins;
(d) ``idable_children`` / ``locally_idable`` / ``Element.child``, all
    read off the per-element child index, agree with the definitions
    as they stood before the change, kept below verbatim;
(e) the walker's render memo (each ask rendered once per region and
    walk) changes nothing: a walk whose memo never stores (a test-side
    patch; there is no production switch) gives byte-equal answers, the
    same subqueries in the same order, equal stats and an equal EXPLAIN
    decision log, also over unpinned bounded steps, whose stale copies
    ask where the cold plan asks: at the highest region above them
    reached through steps with no id predicate.
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core import CoreError, SensorDatabase
from repro.core.idable import (
    locally_idable,
    idable_child_map,
    idable_children,
    node_id,
    non_idable_children,
)
from repro.core.qeg import _compile, _Walker
from repro.obs.explain import ExplainObserver
from repro.xmlkit import Element, Text, parse_fragment, serialize
from repro.xpath import parse
from repro.xpath.analysis import pinned_ids
from repro.xpath.evaluator import Evaluator
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
        return all(to_boolean(_EVALUATOR.evaluate(p, node))
                   for p in predicates)


def _reference_locally_idable(element):
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


def _node_key(node):
    """A node's identity: a text node is its owner's text."""
    return (id(node.parent), "text()") if isinstance(node, Text) \
        else id(node)


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
        assert [_node_key(node) for node in selected] == \
            [_node_key(node) for node in expected], step


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


#: Unpinned bounded steps: a stale copy under them asks above itself.
_UNPINNED_BOUNDS = (
    "[timestamp() > current-time() - 5]",
    "[v='0'][timestamp() > current-time() - 5]",
)


@st.composite
def _queries(draw, step_predicates=st.sampled_from(_STEP_PREDICATES)):
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        steps.append(draw(st.sampled_from(("/", "/", "/", "//")))
                     + draw(st.sampled_from(("n", "m", "*")))
                     + draw(step_predicates))
    tail = draw(st.sampled_from(("", "", "/v", "/text()", "/meta/sub")))
    root = draw(st.sampled_from(("[@id='R']", "", "[@id='R' or @id='Q']",
                                 "[@id='Q']")))
    return "/root" + root + "".join(steps) + tail


class _NeverStores(dict):
    """A render memo that forgets: every ask is rendered afresh."""

    def __setitem__(self, key, value):
        pass


def _walk(tree, pattern, memo=True, now=10.0):
    """Everything one QEG pass lets an outsider see."""
    observer = ExplainObserver()
    walker = _Walker(SensorDatabase(tree, clock=lambda: now), pattern, now,
                     observer=observer)
    if not memo:
        walker._rendered = _NeverStores()
    try:
        result = walker.run()
    except CoreError as error:
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


#: Two stale cached copies under an id-complete root: under a pinned step
#: the ask is the pinned node's own, whether or not the pins are read.
_STALE_PAIR = parse_fragment(
    '<root id="R" status="id-complete">'
    + "".join(f'<n id="{i}" status="complete" timestamp="1"/>'
              for i in ("a", "b"))
    + "</root>")


class TestTheWalkDoesNotDependOnThePins:
    @given(site_trees(), _queries(), st.sampled_from((None, _Schema)))
    @example(_STALE_PAIR,
             "/root[@id='R']/n[@id='a'][timestamp() > current-time() - 5]",
             None)
    @settings(max_examples=400, deadline=None)
    def test_same_answer_subqueries_stats_and_explain(self, tree, query,
                                                      schema):
        before = serialize(tree, use_cache=False)
        pinned = _compile(query, schema)
        blank = _compile(query, schema)
        for item in blank.items:
            item.pinned_ids = None
        assert _walk(tree, pinned) == _walk(tree, blank), query
        assert serialize(tree, use_cache=False) == before


# ----------------------------------------------------------------------
# (d) IDability, one pass per parent
# ----------------------------------------------------------------------
def _assert_idability_agrees(tree):
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
            assert locally_idable(node) == _reference_locally_idable(node)
        for child in element.children:
            first = next(c for c in element.children if c.tag == child.tag
                         and child.id in (None, c.id))
            assert element.child(child.tag, id=child.id) is first


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


# ----------------------------------------------------------------------
# (e) the walk, with and without the render memo
# ----------------------------------------------------------------------
#: A cached block with three stale spaces: they ask at the block three
#: times, rendered once; under ``*`` its stale content ``<v>`` asks there
#: too, with a ``//`` gap, a render of its own.
_STALE_BLOCK = parse_fragment(
    '<root id="R" status="complete" timestamp="7"><v>0</v>'
    + "".join(f'<n id="{i}" status="complete"><v>0</v></n>' for i in range(3))
    + "</root>")


class TestTheWalkDoesNotDependOnTheRenderMemo:
    # At 20 s the drawn stamps 7 and 12.5 fail a 5 s bound (at 10 s, where
    # (c) walks, hardly any drawn copy is stale).
    @given(site_trees(),
           _queries(st.one_of(st.sampled_from(_STEP_PREDICATES),
                              st.sampled_from(_UNPINNED_BOUNDS))),
           st.sampled_from((None, _Schema)))
    @example(_STALE_BLOCK, "/root[@id='R']/n" + _UNPINNED_BOUNDS[1], None)
    @example(_STALE_BLOCK, "/root[@id='R']/*" + _UNPINNED_BOUNDS[0], None)
    @settings(max_examples=400, deadline=None)
    def test_same_answer_subqueries_stats_and_explain(self, tree, query,
                                                      schema):
        before = serialize(tree, use_cache=False)
        pattern = _compile(query, schema)
        assert _walk(tree, pattern, now=20.0) == \
            _walk(tree, pattern, memo=False, now=20.0), query
        assert serialize(tree, use_cache=False) == before
