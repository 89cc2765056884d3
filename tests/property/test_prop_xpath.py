"""Property-based tests for the XPath engine."""

import math
import string

from hypothesis import given, settings, strategies as st

from repro.xmlkit import Element, Text
from repro.xpath import compile_xpath, parse
from repro.xpath.errors import XPathEvaluationError
from repro.xpath.types import compare, to_boolean, to_number, to_string

_tags = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def documents(draw, depth=3):
    element = Element(draw(_tags), attrib={
        "id": str(draw(st.integers(0, 9))),
        "v": str(draw(st.integers(0, 5))),
    })
    if depth > 0:
        for child in draw(st.lists(documents(depth=depth - 1), max_size=3)):
            element.append(child)
    return element


class TestAxisAlgebra:
    @given(documents())
    @settings(max_examples=80, deadline=None)
    def test_descendants_equals_nested_children(self, doc):
        via_descendant = compile_xpath("count(//b)").evaluate(doc)
        manual = float(sum(1 for _ in doc.iter("b")))
        assert via_descendant == manual

    @given(documents())
    @settings(max_examples=80, deadline=None)
    def test_parent_of_child_is_self(self, doc):
        children = compile_xpath("*").select(doc)
        for child in children:
            parents = compile_xpath("..").select(child)
            assert parents == [doc]

    @given(documents())
    @settings(max_examples=80, deadline=None)
    def test_union_is_deduplicated_superset(self, doc):
        left = compile_xpath("//a").select(doc)
        right = compile_xpath("//b").select(doc)
        union = compile_xpath("//a | //b").select(doc)
        assert len(union) == len(left) + len(right)
        assert {id(n) for n in union} == \
            {id(n) for n in left} | {id(n) for n in right}

    @given(documents())
    @settings(max_examples=80, deadline=None)
    def test_predicate_filters_subset(self, doc):
        everything = compile_xpath("//*").select(doc)
        filtered = compile_xpath("//*[@v='3']").select(doc)
        identifiers = {id(n) for n in everything}
        assert all(id(n) in identifiers for n in filtered)
        assert all(n.get("v") == "3" for n in filtered)

    @given(documents())
    @settings(max_examples=50, deadline=None)
    def test_count_matches_select_length(self, doc):
        count = compile_xpath("count(//*[@v='1'])").evaluate(doc)
        selected = compile_xpath("//*[@v='1']").select(doc)
        assert count == float(len(selected))


class TestUnparseRoundtrip:
    _queries = st.sampled_from([
        "/a/b", "//b[@v='1']", "/a[@id='1' or @id='2']/b",
        "count(//a) + 1", "/a[not(@v='0')]", "//*[@id]",
        "/a[b][c]", "sum(//a/@v) > 3", "/a/b | /a/c",
        "/a[count(b) = 2 and @v='1']",
    ])

    @given(_queries, documents())
    @settings(max_examples=100, deadline=None)
    def test_unparse_preserves_semantics(self, query, doc):
        original = compile_xpath(query)
        roundtripped = compile_xpath(original.unparse())
        left = original.evaluate(doc)
        right = roundtripped.evaluate(doc)
        if isinstance(left, list):
            assert [id(n) for n in left] == [id(n) for n in right]
        elif isinstance(left, float) and math.isnan(left):
            assert math.isnan(right)
        else:
            assert left == right

    @given(_queries)
    @settings(max_examples=50, deadline=None)
    def test_unparse_fixpoint(self, query):
        once = parse(query).unparse()
        assert parse(once).unparse() == once


class TestTypeConversions:
    scalars = st.one_of(
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(alphabet=string.printable, max_size=10),
    )

    @given(scalars)
    @settings(max_examples=100, deadline=None)
    def test_boolean_of_string_is_nonempty(self, value):
        if isinstance(value, str):
            assert to_boolean(value) == (len(value) > 0)

    @given(scalars)
    @settings(max_examples=100, deadline=None)
    def test_to_string_to_number_consistent_for_numbers(self, value):
        if isinstance(value, float):
            assert to_number(to_string(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=16),
           st.floats(allow_nan=False, allow_infinity=False, width=16))
    @settings(max_examples=100, deadline=None)
    def test_comparison_trichotomy(self, left, right):
        equal = compare("=", left, right)
        less = compare("<", left, right)
        greater = compare(">", left, right)
        assert sum([equal, less, greater]) == 1

    @given(st.floats(allow_nan=False, allow_infinity=False, width=16),
           st.floats(allow_nan=False, allow_infinity=False, width=16))
    @settings(max_examples=100, deadline=None)
    def test_comparison_antisymmetry(self, left, right):
        assert compare("<", left, right) == compare(">", right, left)
        assert compare("<=", left, right) == compare(">=", right, left)


# ----------------------------------------------------------------------
# The compiled forms the QEG walk decides, against a hand-written oracle
# ----------------------------------------------------------------------
_VALUES = ("yes", "no", " yes ", "yes\n", "")
_STAMPS = ("5.0", "9.5", "1e-05", "2e+16", "soon", "1_0", "inf", "")


@st.composite
def _available(draw):
    """An ``available`` child: a value, a whitespace-padded one, or one
    split between a nested element and the text after it (its
    string-value joins them)."""
    value = draw(st.sampled_from(_VALUES))
    child = Element("available")
    if draw(st.booleans()) and len(value) > 1:
        child.append(Element("b", text=value[:1]))
        child.append(Text(value[1:]))
    elif value:
        child.append(Text(value))
    return child


@st.composite
def parking_spaces(draw):
    """A parkingSpace under a block under a root: ``available`` missing
    or repeated, an ``a`` attribute or none, and a timestamp on the
    space, on an ancestor only, or on neither."""
    root = Element("root")
    block = Element("block")
    space = Element("parkingSpace", attrib={"id": "1"})
    root.append(block)
    block.append(space)
    for child in draw(st.lists(_available(), max_size=3)):
        space.append(child)
    if draw(st.booleans()):
        space.append(Element("price", text="25"))
    attribute = draw(st.sampled_from((None,) + _VALUES))
    if attribute is not None:
        space.set("a", attribute)
    where = draw(st.sampled_from(("self", "block", "root", "none")))
    if where != "none":
        stamp = draw(st.sampled_from(_STAMPS))
        {"self": space, "block": block, "root": root}[where].set(
            "timestamp", stamp)
    return space


def _oracle_string(element):
    parts = [_oracle_string(child) for child in element.children]
    parts.append(element.text or "")
    return "".join(parts)


def _oracle_children(space, literal, equal):
    return any((_oracle_string(child) == literal) is equal
               for child in space.children
               if isinstance(child, Element) and child.tag == "available")


def _oracle_attribute(space, literal):
    return "a" in space.attrib and space.attrib["a"] == literal


def _oracle_fresh(space, now, bound):
    if now is None:
        return False
    node = space
    while node is not None and "timestamp" not in node.attrib:
        node = node.parent
    if node is None:
        return False
    try:
        stamp = float(node.attrib["timestamp"])
    except ValueError:
        return False
    return stamp > now - bound


class TestCompiledPredicatesAgainstAnOracle:
    """``child='lit'``, ``child!='lit'``, ``@a='lit'`` and the freshness
    bound, as the walk decides them (``_Walker.evaluate`` over
    ``compile_predicates``) and as a compiled query selects, equal a
    direct reading of the element; no evaluator output is the
    reference."""

    @staticmethod
    def _cases(literal, bound):
        return {
            f"available = '{literal}'":
                lambda s, now: _oracle_children(s, literal, True),
            f"'{literal}' = available":
                lambda s, now: _oracle_children(s, literal, True),
            f"available != '{literal}'":
                lambda s, now: _oracle_children(s, literal, False),
            f"@a = '{literal}'":
                lambda s, now: _oracle_attribute(s, literal),
            f"timestamp() > current-time() - {bound}":
                lambda s, now: _oracle_fresh(s, now, bound),
        }

    @given(parking_spaces(), st.sampled_from(("yes", "no", " yes ", "")),
           st.sampled_from((None, 0.0, 10.0, 1e16)),
           st.sampled_from((1, 30)))
    @settings(max_examples=300, deadline=None)
    def test_the_walk_and_a_selection_decide_as_the_oracle(
            self, space, literal, now, bound):
        from repro.core import SensorDatabase, compile_pattern
        from repro.core.qeg import _Walker
        from repro.xpath.evaluator import compile_predicates

        root = space.parent.parent
        walker = _Walker(SensorDatabase(root), compile_pattern("/root"), now)
        for source, oracle in self._cases(literal, bound).items():
            expected = oracle(space, now)
            check = compile_predicates([parse(source)])
            assert walker.evaluate(check, space) is expected, source
            step = compile_xpath(f"block/parkingSpace[{source}]")
            try:
                selected = step.select(root, now=now)
            except XPathEvaluationError:
                assert now is None and not expected, source
                continue
            assert selected == ([space] if expected else []), source
