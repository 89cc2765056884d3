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
from repro.xmlkit.nodes import FORBIDDEN_CHARACTER

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'.-_",
    max_size=12,
)


#: Every character XML 1.0 allows, weighted toward the ones its
#: end-of-line and attribute-value normalization would change, markup,
#: whitespace ``str.strip`` knows and XML does not, and planes beyond
#: the BMP.
_legal_values = st.text(
    alphabet=st.one_of(
        st.sampled_from("\t\n\r <>&\"'\x85\u2003\ufffd"
                        "\U00010000\U0001f600\U0010fffd"),
        st.characters(blacklist_categories=("Cs",)).filter(
            lambda ch: FORBIDDEN_CHARACTER.match(ch) is None)),
    max_size=12,
)


@st.composite
def elements(draw, depth=3, values=_values):
    tag = draw(_names)
    attrib = draw(st.dictionaries(_names, values, max_size=3))
    element = Element(tag, attrib=attrib)
    text = draw(st.one_of(st.none(), values))
    if text is not None and text.strip():
        element.set_text(text.strip())
    if depth > 0:
        for child in draw(st.lists(elements(depth - 1, values),
                                   max_size=3)):
            element.append(child)
    return element


class TestRoundtrip:
    @given(elements())
    @settings(max_examples=120, deadline=None)
    def test_serialize_parse_identity(self, element):
        assert trees_equal(parse_fragment(serialize(element)), element)

    @given(elements(values=_legal_values))
    @settings(max_examples=200, deadline=None)
    def test_every_legal_value_survives_the_wire(self, element):
        text = serialize(element)
        again = parse_fragment(text)
        assert trees_equal(again, element)
        assert serialize(again) == text

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
