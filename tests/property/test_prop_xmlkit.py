"""Property-based tests for the XML substrate."""

import string

from hypothesis import given, settings, strategies as st

from repro.xmlkit import (
    Element,
    canonical_form,
    diff_trees,
    parse_fragment,
    serialize,
    trees_equal,
)

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'.-_",
    max_size=12,
)


@st.composite
def elements(draw, depth=3):
    tag = draw(_names)
    attrib = draw(st.dictionaries(_names, _values, max_size=3))
    element = Element(tag, attrib=attrib)
    text = draw(st.one_of(st.none(), _values))
    if text is not None and text.strip():
        element.set_text(text.strip())
    if depth > 0:
        for child in draw(st.lists(elements(depth=depth - 1), max_size=3)):
            element.append(child)
    return element


class TestRoundtrip:
    @given(elements())
    @settings(max_examples=120, deadline=None)
    def test_serialize_parse_identity(self, element):
        assert trees_equal(parse_fragment(serialize(element)), element)

    @given(elements())
    @settings(max_examples=60, deadline=None)
    def test_pretty_serialize_parse_identity(self, element):
        assert trees_equal(parse_fragment(serialize(element, pretty=True)),
                           element)

    @given(elements())
    @settings(max_examples=60, deadline=None)
    def test_copy_equal_and_independent(self, element):
        clone = element.copy()
        assert trees_equal(clone, element)
        clone.set("mutation", "x")
        assert not trees_equal(clone, element)


class TestCanonical:
    @given(elements())
    @settings(max_examples=60, deadline=None)
    def test_canonical_insensitive_to_child_order(self, element):
        if len(element.children) < 2:
            return
        shuffled = element.copy()
        shuffled.children.reverse()
        assert canonical_form(shuffled) == canonical_form(element)

    @given(elements())
    @settings(max_examples=60, deadline=None)
    def test_diff_empty_iff_equal(self, element):
        assert diff_trees(element, element.copy()) == []
