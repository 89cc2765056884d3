"""An element's character data is one string in its ``text`` slot, after
its child elements: the representation a block holds, and the ``text()``
view XPath makes of it."""

import gc

from repro.core.database import SensorDatabase
from repro.core.status import Status, clean_copy, set_status
from repro.service.parking import ParkingConfig, build_parking_document
from repro.xmlkit import Element, Text, parse_fragment, serialize
from repro.xmlkit.nodes import copy_subtree
from repro.xpath import evaluate_xpath

_DOCUMENT = build_parking_document(ParkingConfig.paper_small())


def _block():
    """The first ``paper_small`` block as a reply carries it: parsed."""
    return parse_fragment(serialize(next(_DOCUMENT.iter("block"))))


class TestRepresentation:
    def test_a_block_holds_elements_with_their_text_in_the_slot(self):
        parsed = _block()
        for tree in (parsed, copy_subtree(parsed), clean_copy(parsed)):
            elements = list(tree.iter())
            assert len(elements) == 81
            assert all(child.__class__ is Element
                       for element in elements for child in element.children)
            leaves = [element for element in elements if not element.children]
            assert len(leaves) == 60
            assert all(leaf.text is not None for leaf in leaves)
            assert serialize(tree) == serialize(parsed)

    def test_a_copied_block_is_one_tracked_object_per_leaf(self):
        # The collector tracks every element and every list; a dict of
        # strings it does not.  A leaf's children are the shared NO_KIDS
        # and its attributes the shared NO_ATTRS (both tracked, once).
        elements = list(clean_copy(_block()).iter())
        tracked = {id(held) for element in elements
                   for held in (element, element.children, element.attrib)
                   if gc.is_tracked(held)}
        with_children = sum(1 for element in elements if element.children)
        assert (len(elements), with_children) == (81, 21)
        assert len(tracked) == len(elements) + with_children + 2 == 104

    def test_setting_the_held_value_leaves_the_stamp_alone(self):
        block = _block()
        leaf = next(block.iter("available"))
        leaf.set_text("maybe")
        stamp = block.subtree_version
        leaf.set_text("maybe")
        assert block.subtree_version == stamp
        leaf.set_text("no")
        assert block.subtree_version != stamp

    def test_appended_text_joins_the_slot(self):
        element = Element("a", children=[Element("b", text="y"), Text("e")])
        element.append(Text("s"))
        assert element.text == "es"
        assert [child.tag for child in element.children] == ["b"]
        assert serialize(element) == "<a><b>y</b>es</a>"


class TestTextView:
    def test_a_union_of_one_text_is_one_node(self):
        root = parse_fragment("<r><a><b/>x</a></r>")
        nodes = evaluate_xpath("a/text() | a/text()", root)
        assert len(nodes) == 1 and nodes[0].value == "x"

    def test_the_view_s_parent_is_its_owner(self):
        root = parse_fragment("<r><a>x</a></r>")
        assert evaluate_xpath("a/text()/..", root) == [root.child("a")]

    def test_it_follows_the_child_elements(self):
        root = parse_fragment("<r><a><b>y</b>es</a></r>")
        nodes = evaluate_xpath("a/node()", root)
        assert [getattr(n, "tag", None) for n in nodes] == ["b", None]
        assert nodes[1].value == "es"
        assert evaluate_xpath("string(a)", root) == "yes"

    def test_counting_every_available_text(self):
        leaves = sum(1 for _ in _DOCUMENT.iter("available"))
        assert evaluate_xpath("count(//available/text())", _DOCUMENT) == \
            float(leaves)

    def test_a_read_after_an_update_sees_the_new_value(self):
        root = parse_fragment("<s id='1'><v>1</v></s>")
        set_status(root, Status.OWNED)
        database = SensorDatabase(root, clock=lambda: 1000.0, site_id="s0")
        assert evaluate_xpath("v/text()", database.root)[0].value == "1"
        database.apply_update((("s", "1"),), values={"v": "2"})
        assert evaluate_xpath("v/text()", database.root)[0].value == "2"
