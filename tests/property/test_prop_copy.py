"""The one subtree copier, against its contract.

``copy_subtree`` builds every copy: a user's clean result copy
(``clean_copy``: no ``status``, no memo, no origin) and an answer's
copy of database content (``Element.copy``: memo entries and an origin
link carried).  Random trees mix IDable nodes, valued leaves, text,
``status`` / ``timestamp`` / other attributes and subtrees whose
serialization is memoized.  For each:

(a) every copied node equals its source, ``status`` left out for a
    clean copy, as an unordered tree (``canonical_form``);
(b) parent links are the copy's own, a childless element is stamped 0
    and any other one higher than everything below it;
(c) a clean copy has no memo and no origin anywhere;
(d) mutating a copy leaves the source's ``subtree_version`` alone;
(e) ``Element.copy`` carries exactly the source's valid memo entries
    and the origin triple, and bytes serialized on the copy reach the
    source (the serializer-memo tests in ``tests/test_core_index.py``
    state the same for fixed trees).
"""

from hypothesis import given, settings, strategies as st

from repro.core.status import STATUS_ATTRIBUTE, clean_copy
from repro.xmlkit import (
    Element,
    Text,
    canonical_form,
    reset_serialization_stats,
    serialization_stats,
    serialize,
)
from repro.xpath import evaluate_xpath

_TAGS = ("zone", "spot", "value", "meta")
_STATUSES = ("owned", "complete", "id-complete", "incomplete")
_VALUES = st.text(alphabet="ab1 <&'", max_size=4)


@st.composite
def _nodes(draw, depth):
    """An element built by mutation, as a site database's are."""
    attrib = {}
    if draw(st.booleans()):
        attrib["id"] = draw(st.sampled_from(("a", "b", "c")))
    if draw(st.booleans()):
        attrib[STATUS_ATTRIBUTE] = draw(st.sampled_from(_STATUSES))
    if draw(st.booleans()):
        attrib["timestamp"] = repr(draw(st.floats(0, 1000, width=32)))
    if draw(st.booleans()):
        attrib["note"] = draw(_VALUES)
    element = Element(draw(st.sampled_from(_TAGS)), attrib=attrib)
    kinds = st.sampled_from(("text", "leaf", "node") if depth else
                            ("text", "leaf"))
    for kind in draw(st.lists(kinds, max_size=3)):
        if kind == "text":
            element.append(Text(draw(_VALUES)))
        elif kind == "leaf":
            element.append(Element("value", text=draw(_VALUES)))
        else:
            element.append(draw(_nodes(depth - 1)))
    return element


@st.composite
def trees(draw):
    """A random tree, some of its subtrees' serializations memoized
    (the last one memoized may be mutated since, leaving stale
    entries)."""
    root = draw(_nodes(3))
    elements = list(root.iter())
    for index in draw(st.lists(st.integers(0, len(elements) - 1),
                               max_size=3)):
        serialize(elements[index])
    if draw(st.booleans()):
        elements[draw(st.integers(0, len(elements) - 1))].set("late", "1")
    return root


def _pairs(source, copy):
    """``(source node, copied node)`` of the two trees, side by side."""
    stack = [(source, copy)]
    while stack:
        pair = stack.pop()
        yield pair
        if isinstance(pair[0], Element):
            assert len(pair[0].children) == len(pair[1].children)
            stack.extend(zip(pair[0].children, pair[1].children))


def _assert_built_whole(copy):
    assert copy.parent is None
    for node in copy.iter():
        for child in node.children:
            assert child.parent is node
        if node.children:
            assert all(node.subtree_version > below.subtree_version
                       for below in node.descendants())
        else:
            assert node.subtree_version == 0


class TestCleanCopy:
    @given(trees())
    @settings(max_examples=150, deadline=None)
    def test_the_source_without_status_at_every_depth(self, source):
        copy = clean_copy(source)
        for original, copied in _pairs(source, copy):
            assert copied is not original
            assert canonical_form(copied) == canonical_form(
                original, ignore={STATUS_ATTRIBUTE})
        _assert_built_whole(copy)

    @given(trees())
    @settings(max_examples=100, deadline=None)
    def test_no_memo_no_origin(self, source):
        for node in clean_copy(source).iter():
            assert node._ser_cache is None and node._ser_origin is None
            assert STATUS_ATTRIBUTE not in node.attrib

    @given(trees(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutating_the_copy_leaves_the_source_alone(self, source, data):
        versions = [node.subtree_version for node in source.iter()]
        form = canonical_form(source)
        copies = list(clean_copy(source).iter())
        target = copies[data.draw(st.integers(0, len(copies) - 1))]
        target.set("note", "changed")
        target.append(Element("spot", attrib={"id": "new"}))
        target.set_text("x")
        assert [node.subtree_version for node in source.iter()] == versions
        assert canonical_form(source) == form

    def test_a_text_node(self):
        text = evaluate_xpath("text()", Element("value", text="7"))[0]
        copy = clean_copy(text)
        assert copy.__class__ is Text and copy.value == "7"
        assert copy.parent is None


class TestElementCopy:
    @given(trees())
    @settings(max_examples=150, deadline=None)
    def test_memo_and_origin_carried(self, source):
        copy = source.copy()
        _assert_built_whole(copy)
        for original, copied in _pairs(source, copy):
            assert canonical_form(copied) == canonical_form(original)
            if not isinstance(original, Element):
                continue
            valid = {key: text
                     for key, (stamp, text) in (original._ser_cache or {}).items()
                     if stamp == original.subtree_version}
            assert {key: copied.cached_serialization(key)
                    for key in copied._ser_cache or ()} == valid
            assert copied._ser_origin == (original, original.subtree_version,
                                          copied.subtree_version)

    @given(trees())
    @settings(max_examples=100, deadline=None)
    def test_serializing_a_copy_of_a_copy_warms_the_source(self, source):
        copy = source.copy().copy()
        text = serialize(copy)
        reset_serialization_stats()
        assert serialize(source) == text
        assert serialization_stats()["cache_misses"] == 0

    @given(trees(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutating_the_copy_leaves_the_source_alone(self, source, data):
        versions = [node.subtree_version for node in source.iter()]
        text = serialize(source, use_cache=False)
        copies = list(source.copy().iter())
        target = copies[data.draw(st.integers(0, len(copies) - 1))]
        target.set("note", "changed")
        serialize(copies[0])  # a mutated copy writes nothing back
        assert [node.subtree_version for node in source.iter()] == versions
        assert serialize(source) == text
