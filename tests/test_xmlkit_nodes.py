"""Unit tests for the XML node model."""

import copy
import pickle

import pytest

from repro.core.idable import id_stub
from repro.core.status import Status, clean_copy
from repro.xmlkit import (
    Document,
    Element,
    Text,
    XmlStructureError,
    is_valid_name,
    parse_fragment,
    serialize,
)
from repro.xmlkit.nodes import NO_ATTRS, NO_KIDS, copy_subtree


class TestNames:
    def test_simple_names_valid(self):
        for name in ("a", "usRegion", "parking-space", "x.y", "_hidden", "A1"):
            assert is_valid_name(name)

    def test_invalid_names(self):
        for name in ("", "1abc", "-x", ".x", "a b", "a<b", "a&b"):
            assert not is_valid_name(name)

    def test_element_rejects_bad_tag(self):
        with pytest.raises(XmlStructureError):
            Element("1bad")

    def test_element_rejects_bad_attribute(self):
        with pytest.raises(XmlStructureError):
            Element("ok", attrib={"1bad": "x"})

    def test_set_rejects_bad_attribute(self):
        with pytest.raises(XmlStructureError):
            Element("ok").set("bad name", "x")


class TestConstruction:
    def test_text_constructor(self):
        element = Element("price", text="25")
        assert element.text == "25"

    def test_children_constructor(self):
        child = Element("a")
        parent = Element("p", children=[child])
        assert child.parent is parent
        assert parent.children == [child]

    def test_attrib_copied_not_aliased(self):
        attrs = {"id": "1"}
        element = Element("a", attrib=attrs)
        attrs["id"] = "2"
        assert element.get("id") == "1"

    def test_set_coerces_to_string(self):
        element = Element("a")
        element.set("n", 42)
        assert element.get("n") == "42"

    def test_id_property(self):
        assert Element("a", attrib={"id": "x"}).id == "x"
        assert Element("a").id is None


class TestMutation:
    def test_append_sets_parent(self):
        parent = Element("p")
        child = parent.append(Element("c"))
        assert child.parent is parent

    def test_append_attached_node_fails(self):
        parent = Element("p")
        child = parent.append(Element("c"))
        with pytest.raises(XmlStructureError):
            Element("q").append(child)

    def test_append_non_node_fails(self):
        with pytest.raises(XmlStructureError):
            Element("p").append("not a node")

    def test_remove_detaches(self):
        parent = Element("p")
        child = parent.append(Element("c"))
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_remove_non_child_fails(self):
        with pytest.raises(XmlStructureError):
            Element("p").remove(Element("c"))

    def test_detach(self):
        parent = Element("p")
        child = parent.append(Element("c"))
        assert child.detach() is child
        assert child.parent is None
        # Detaching twice is a no-op.
        child.detach()

    def test_clear_children(self):
        parent = Element("p", children=[Element("a"), Element("b")])
        kids = list(parent.children)
        parent.clear_children()
        assert parent.children == []
        assert all(k.parent is None for k in kids)

    def test_set_text_replaces_only_text(self):
        parent = Element("p", text="old")
        parent.append(Element("keep"))
        parent.set_text("new")
        assert parent.text == "new"
        assert parent.child("keep") is not None

    def test_set_text_none_removes(self):
        parent = Element("p", text="old")
        parent.set_text(None)
        assert parent.text is None

    def test_delete_attribute_noop_when_absent(self):
        element = Element("a")
        element.delete_attribute("nope")  # must not raise


class TestNavigation:
    def _tree(self):
        root = Element("r", attrib={"id": "R"})
        a = root.append(Element("a", attrib={"id": "1"}))
        b = root.append(Element("b"))
        a.append(Element("c", text="deep"))
        b.append(Element("c", text="other"))
        return root, a, b

    def test_element_children_filter(self):
        root, a, b = self._tree()
        assert list(root.element_children()) == [a, b]
        assert list(root.element_children("a")) == [a]

    def test_child_by_tag_and_id(self):
        root, a, _b = self._tree()
        assert root.child("a") is a
        assert root.child("a", id="1") is a
        assert root.child("a", id="2") is None

    def test_iter_visits_all_elements(self):
        root, *_ = self._tree()
        assert sum(1 for _ in root.iter()) == 5
        assert sum(1 for _ in root.iter("c")) == 2

    def test_descendants_excludes_self(self):
        root, *_ = self._tree()
        assert root not in list(root.descendants())
        assert sum(1 for _ in root.descendants()) == 4

    def test_ancestors_and_root(self):
        root, a, _b = self._tree()
        c = a.child("c")
        assert list(c.ancestors()) == [a, root]
        assert c.root() is root
        assert c.depth() == 2
        assert root.depth() == 0

    def test_path_from_root(self):
        root, a, _b = self._tree()
        c = a.child("c")
        assert c.path_from_root() == [root, a, c]

    def test_string_value_concatenates_descendant_text(self):
        root, *_ = self._tree()
        assert root.string_value() == "deepother"

    def test_text_none_vs_empty(self):
        assert Element("a").text is None
        assert Element("a", text="").text == ""

    def test_size(self):
        root, *_ = self._tree()
        assert root.size() == 5


class TestCopy:
    def test_copy_is_deep_and_detached(self):
        root = Element("r", attrib={"id": "R"})
        root.append(Element("a", text="x"))
        clone = root.copy()
        assert clone.parent is None
        assert clone is not root
        assert clone.child("a").text == "x"
        clone.child("a").set_text("y")
        assert root.child("a").text == "x"

    def test_shallow_copy(self):
        root = Element("r", attrib={"id": "R"}, children=[Element("a")])
        clone = root.shallow_copy()
        assert clone.attrib == root.attrib
        assert clone.children == []

    def test_text_copy(self):
        text = Text("hello")
        clone = text.copy()
        assert clone == text and clone is not text


def _zone_tree():
    """``<root><zone id="z" status="owned"><value>7</value>
    <spot id="s"/></zone></root>``, built by mutation."""
    return Element("root", children=[
        Element("zone", attrib={"id": "z", "status": "owned"}, children=[
            Element("value", text="7"),
            Element("spot", attrib={"id": "s"}),
        ]),
    ])


class TestStampedOnce:
    """A subtree built whole -- parsed, copied or clean-copied -- is
    stamped once per element: one with children higher than every
    descendant, a childless one 0.  The serialization memo and the
    id-path index read stamps in that order."""

    @staticmethod
    def _assert_stamped_once(root):
        for node in root.iter():
            if node.children:
                assert node.subtree_version > 0
                assert all(node.subtree_version > below.subtree_version
                           for below in node.descendants())
            else:
                assert node.subtree_version == 0

    def test_parsed(self):
        self._assert_stamped_once(parse_fragment(
            "<root><zone id='z'><value> 7 </value><spot id='s'/>"
            "<spot id='t'><price>0</price><!-- c --></spot></zone>"
            "<empty></empty></root>"))

    def test_copied(self):
        self._assert_stamped_once(_zone_tree().copy())

    def test_clean_copied(self):
        from repro.core.status import clean_copy

        clone = clean_copy(_zone_tree())
        assert clone.child("zone").get("status") is None
        self._assert_stamped_once(clone)


class TestDispose:
    def test_encoding_leaves_a_lent_subtree_as_it_was(self):
        from repro.net.messages import AnswerMessage

        database = _zone_tree()
        lent = database.child("zone")
        result = lent.copy()
        memo = serialize(lent)
        children = list(lent.children)
        version = lent.subtree_version
        result_children = list(result.children)

        AnswerMessage(1, fragment=lent, results=[result]).encode()

        assert lent.parent is database
        assert lent.children == children
        assert lent.subtree_version == version
        assert lent.cached_serialization(False) == memo
        assert database.child("zone", "z") is lent
        assert result.parent is None and result.children == result_children

    def test_an_adopted_child_keeps_its_new_parent(self):
        fragment = _zone_tree()
        zone = fragment.child("zone")
        adopted = zone.child("value")
        target = Element("zone", attrib={"id": "z"})
        # What a handed-over merge does with non-IDable content.
        zone.remove(adopted)
        target.append(adopted)
        # Even a stale listing of it does not reach it.
        zone.children.append(adopted)

        fragment.dispose()

        assert fragment.children == [] and zone.children == []
        assert adopted.parent is target
        assert target.children == [adopted]
        assert adopted.text == "7"
        assert target.child("value") is adopted


def _leaves(tree):
    return [element for element in tree.iter() if not element.children]


class TestSharedEmpties:
    """A childless element holds the one ``NO_KIDS`` and an
    attribute-less one the one ``NO_ATTRS``; the mutators give an
    element containers of its own on its first write."""

    @pytest.mark.parametrize("build", [
        lambda: Element("a"),
        lambda: Element("a", attrib={}, text="1"),
        lambda: Element.assemble("a", {}, []),
        lambda: parse_fragment("<r><a>1</a><b/></r>"),
        lambda: copy_subtree(parse_fragment("<r><a>1</a><b/></r>")),
        lambda: copy_subtree(Element("r", children=[
            Element("a", attrib={"status": "owned"})]), drop={"status"}),
        lambda: clean_copy(_zone_tree()).child("zone").child("value"),
        lambda: id_stub(Element("a")),
        lambda: Element("a", children=[Element("b")]).shallow_copy(),
    ], ids=["init", "init-empty-attrib", "assemble", "parse", "copy",
            "copy-drop", "clean-copy", "id-stub", "shallow-copy"])
    def test_a_built_leaf_holds_the_shared_empties(self, build):
        tree = build()
        leaves = [leaf for leaf in _leaves(tree) if leaf.id is None]
        assert leaves
        for leaf in leaves:
            assert leaf.children is NO_KIDS
            assert leaf.attrib is NO_ATTRS

    def test_an_id_stub_shares_only_the_children(self):
        stub = id_stub(Element("spot", attrib={"id": "s"}), Status.INCOMPLETE)
        assert stub.children is NO_KIDS
        assert stub.attrib == {"id": "s", "status": "incomplete"}

    def test_a_disposed_tree_holds_no_children_of_its_own(self):
        tree = _zone_tree()
        zone = tree.child("zone")
        tree.dispose()
        assert tree.children is NO_KIDS and zone.children is NO_KIDS

    def test_clearing_children_gives_back_the_shared_list(self):
        element = Element("a", children=[Element("b")], text="x")
        element.clear_children()
        assert element.children is NO_KIDS and element.text is None

    def test_the_first_append_allocates(self):
        leaf, other = Element("a"), Element("c")
        child = Element("b")
        leaf.append(child)
        other.extend([Element("d")])
        assert leaf.children == [child] and leaf.children is not NO_KIDS
        assert other.children is not leaf.children
        assert NO_KIDS == []

    def test_the_first_set_allocates(self):
        leaf, other = Element("a"), Element("c")
        leaf.set("k", "v")
        assert leaf.attrib == {"k": "v"} and leaf.attrib is not NO_ATTRS
        assert other.attrib is NO_ATTRS and NO_ATTRS == {}

    def test_deleting_from_a_leaf_is_a_no_op(self):
        leaf = Element("a")
        stamp = leaf.subtree_version
        leaf.delete_attribute("timestamp")
        assert leaf.attrib is NO_ATTRS and leaf.subtree_version == stamp

    def test_removing_from_a_leaf_raises(self):
        with pytest.raises(XmlStructureError):
            Element("a").remove(Element("b"))

    def test_a_leaf_refuses_direct_edits(self):
        leaf = Element("a")
        with pytest.raises(TypeError):
            leaf.children.append(Element("b"))
        with pytest.raises(TypeError):
            leaf.attrib["k"] = "v"
        assert leaf.children == [] and leaf.attrib == {}

    @pytest.mark.parametrize("edit", [
        lambda kids: kids.append(1), lambda kids: kids.extend([1]),
        lambda kids: kids.insert(0, 1), lambda kids: kids.remove(1),
        lambda kids: kids.pop(), lambda kids: kids.clear(),
        lambda kids: kids.sort(), lambda kids: kids.reverse(),
        lambda kids: kids.__setitem__(slice(0, 0), [1]),
        lambda kids: kids.__delitem__(slice(None)),
        lambda kids: kids.__iadd__([1]), lambda kids: kids.__imul__(2),
    ])
    def test_every_list_mutator_raises(self, edit):
        with pytest.raises(TypeError):
            edit(NO_KIDS)
        assert NO_KIDS == []

    @pytest.mark.parametrize("edit", [
        lambda attrs: attrs.__setitem__("k", "v"),
        lambda attrs: attrs.__delitem__("k"),
        lambda attrs: attrs.pop("k", None), lambda attrs: attrs.popitem(),
        lambda attrs: attrs.update(k="v"), lambda attrs: attrs.setdefault("k"),
        lambda attrs: attrs.clear(), lambda attrs: attrs.__ior__({"k": "v"}),
    ])
    def test_every_map_mutator_raises(self, edit):
        with pytest.raises(TypeError):
            edit(NO_ATTRS)
        assert NO_ATTRS == {}

    def test_a_copied_or_pickled_leaf_still_allocates_on_write(self):
        for leaf in (copy.deepcopy(Element("a")),
                     pickle.loads(pickle.dumps(Element("a")))):
            assert leaf.children is NO_KIDS and leaf.attrib is NO_ATTRS
            leaf.append(Element("b"))
            leaf.set("k", "v")
            assert len(leaf.children) == 1 and leaf.attrib == {"k": "v"}


class TestDocument:
    def test_document_requires_element(self):
        with pytest.raises(XmlStructureError):
            Document("nope")

    def test_document_copy(self):
        doc = Document(Element("r", attrib={"id": "1"}))
        clone = doc.copy()
        assert clone.root is not doc.root
        assert clone.root.tag == "r"
