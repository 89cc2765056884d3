"""Differential property: the answer builder against the seed's builder.

PR 15 made answer construction linear in the nodes included (a
per-answer "ID information already included" set, one step up in
``include_ancestors``, child stubs registered in the mapping).  The
seed's builder -- exponential in depth, but the definition of what a
fragment must look like -- is kept here, verbatim, as the oracle: for
any site tree satisfying I1/I2 and any sequence of ``include_*`` calls,
repeats and nested targets included, both builders must produce the
same fragment, call ``on_missing`` with the same nodes in the same
order, and raise the same ``CoreError`` at the same call.

"The same fragment" is the same receiver view: the seed rewrote
statuses and timestamps at the sender, and the builder now ships them
as stored and lends whole subtrees in their stored child order, so a
fragment is compared as its receiver records it -- ``owned`` read as
``complete``, timestamps canonical, siblings unordered (Section 3.1).
"""

from hypothesis import given, settings, strategies as st

from repro.core import AnswerBuilder, CoreError
from repro.core.idable import (
    id_path_of,
    id_stub,
    idable_children,
    iter_idable,
    node_id,
    non_idable_children,
)
from repro.core.status import (
    Status,
    get_status,
    get_timestamp,
    set_status,
    set_timestamp,
)
from repro.xmlkit import Element, Text, parse_fragment, serialize
from repro.xmlkit.compare import canonical_form


# ----------------------------------------------------------------------
# The oracle: ``AnswerBuilder`` as of the commit before PR 15, verbatim
# (only the class name differs).  Not a second code path: nothing under
# ``src/`` imports it.
# ----------------------------------------------------------------------


class ReferenceAnswerBuilder:
    """Builds a wire-format fragment from a site database.

    The builder lazily materializes the root path of every included
    node with local ID information (satisfying C2) and marks statuses
    from the receiver's point of view.
    """

    def __init__(self, database):
        self.database = database
        self.root = None
        self._mapping = {}  # id(db element) -> answer element

    @property
    def is_empty(self):
        return self.root is None

    # ------------------------------------------------------------------
    def _ensure(self, element):
        """Answer-side element for *element*, creating ancestors as needed."""
        key = id(element)
        if key in self._mapping:
            return self._mapping[key]
        chain = element.path_from_root()
        if self.root is None:
            top = chain[0]
            self.root = id_stub(top)
            set_status(self.root, Status.INCOMPLETE)
            self._mapping[id(top)] = self.root
        current = self._mapping[id(chain[0])]
        for db_node in chain[1:]:
            key = id(db_node)
            if key in self._mapping:
                current = self._mapping[key]
                continue
            identifier = node_id(db_node)
            found = None
            for child in current.element_children(identifier[0]):
                if child.id == identifier[1]:
                    found = child
                    break
            if found is None:
                found = id_stub(db_node)
                set_status(found, Status.INCOMPLETE)
                current.append(found)
            self._mapping[key] = found
            current = found
        return current

    def _upgrade_status(self, answer_element, status):
        if get_status(answer_element).rank < status.rank:
            set_status(answer_element, status)

    # ------------------------------------------------------------------
    def include_id_information(self, element):
        """Include the local ID information of *element* (pass-through node).

        The sender must itself hold at least the node's local ID
        information (guaranteed by I2 for any node it stores data
        below).
        """
        if not get_status(element).has_id_information:
            raise CoreError(
                f"cannot include ID information of {node_id(element)}: "
                f"sender only has status {get_status(element).value}"
            )
        self.include_ancestors(element)
        target = self._ensure(element)
        self._upgrade_status(target, Status.ID_COMPLETE)
        existing = {node_id(c) for c in idable_children(target)}
        for child in idable_children(element):
            if node_id(child) not in existing:
                stub = id_stub(child)
                set_status(stub, Status.INCOMPLETE)
                target.append(stub)
        return target

    def include_ancestors(self, element):
        """Include local ID information of every proper ancestor (C2)."""
        for ancestor in element.ancestors():
            self.include_id_information(ancestor)

    def include_local_information(self, element):
        """Include the full local information of *element*.

        The receiver records the node as ``complete`` (a cached copy),
        regardless of whether the sender owned it.
        """
        status = get_status(element)
        if not status.has_local_information:
            raise CoreError(
                f"cannot include local information of {node_id(element)}: "
                f"sender only has status {status.value}"
            )
        self.include_ancestors(element)
        target = self._ensure(element)
        # Attributes (system status replaced by the receiver-view one).
        for name, value in element.attrib.items():
            if name != "status":
                target.set(name, value)
        set_status(target, Status.COMPLETE)
        stamp = get_timestamp(element)
        if stamp is not None:
            set_timestamp(target, stamp)
        # Non-IDable content, replacing whatever scaffolding was there.
        target.set_text(element.text)
        for child in list(non_idable_children(target)):
            target.remove(child)
        for child in non_idable_children(element):
            target.append(child.copy())
        # Child ID stubs.
        existing = {node_id(c) for c in idable_children(target)}
        for child in idable_children(element):
            if node_id(child) not in existing:
                stub = id_stub(child)
                set_status(stub, Status.INCOMPLETE)
                target.append(stub)
        return target

    def include_subtree(self, element, on_missing=None):
        """Include local information of *element* and all its descendants.

        XPath answers are whole subtrees, so a result node drags in the
        local information of every IDable node beneath it.  For
        descendants whose local information the sender lacks,
        *on_missing(descendant)* is invoked (the QEG walker emits a
        subquery there); with no callback the gap is silently included
        as ID-only data.
        """
        stack = [element]
        while stack:
            node = stack.pop()
            status = get_status(node)
            if status.has_local_information:
                self.include_local_information(node)
                stack.extend(idable_children(node))
            else:
                if status.has_id_information:
                    self.include_id_information(node)
                if on_missing is not None:
                    on_missing(node)

    # ------------------------------------------------------------------
    def build(self):
        """The finished fragment (or ``None`` when nothing was included)."""
        return self.root


# ----------------------------------------------------------------------
# Site trees
# ----------------------------------------------------------------------
_MAX_DEPTH = 7
_NODE_BUDGET = 40
_STATUSES = ("owned", "complete", "id-complete", "incomplete")
_WITH_ID_INFORMATION = _STATUSES[:3]
_CONTENT_KINDS = ("value", "nested", "twins", "text", "anonymous")
_TIMESTAMPS = (None, "7", "12.5", "1e3")


def _content(kind, serial):
    """Non-IDable content of a node with local information."""
    if kind == "value":
        return [Element("v", text=str(serial))]
    if kind == "nested":
        return [Element("meta", attrib={"k": str(serial)},
                        children=[Element("sub", text="x")])]
    if kind == "twins":
        # Two same-tag children sharing an id: neither is IDable.
        return [Element("n", attrib={"id": "twin"}, text=str(i))
                for i in range(2)]
    if kind == "text":
        return [Text(f"t{serial}")]
    return [Element("n", text="no id")]


def _grow(draw, element, status, depth, spine, budget):
    """Fill in what a site holding *status* for *element* stores (I1/I2):
    nothing below an ``incomplete`` node, the IDable children below an
    ``id-complete`` one, everything below a node with local information."""
    if draw(st.booleans()):
        element.set("zone", f"z{depth}")
    element.set("status", status)
    if status == "incomplete":
        return
    children = []
    if status in ("owned", "complete"):
        stamp = draw(st.sampled_from(_TIMESTAMPS))
        if stamp is not None:
            element.set("timestamp", stamp)
        kinds = draw(st.lists(st.sampled_from(_CONTENT_KINDS), max_size=3))
        for serial, kind in enumerate(kinds):
            children.extend(_content(kind, serial))
    if depth < _MAX_DEPTH:
        on_spine = depth < spine
        count = draw(st.integers(1 if on_spine else 0, 3))
        for index in range(count):
            if budget[0] == 0:
                break
            budget[0] -= 1
            child = Element(draw(st.sampled_from(("n", "m"))),
                            attrib={"id": str(index)})
            child_status = draw(st.sampled_from(
                _WITH_ID_INFORMATION if on_spine and index == 0
                else _STATUSES))
            _grow(draw, child, child_status, depth + 1, spine, budget)
            children.append(child)
    for child in draw(st.permutations(children)):
        element.append(child)


@st.composite
def site_trees(draw):
    """An irregular site fragment: at most ``_MAX_DEPTH`` levels and
    ``_NODE_BUDGET`` IDable nodes below the root, with one spine of
    nodes holding ID information drawn down to a random depth."""
    root = Element("root", attrib={"id": "R"})
    _grow(draw, root, draw(st.sampled_from(_WITH_ID_INFORMATION)), 0,
          draw(st.integers(1, _MAX_DEPTH)), [_NODE_BUDGET])
    return root


_CALLS = ("include_id_information", "include_local_information",
          "include_subtree", "include_ancestors")
#: Small indices come up again and again (repeats) and, the node list
#: being top-down, name ancestors of most other targets (nesting).
_TARGETS = st.one_of(st.integers(0, 4), st.integers(0, 10_000))
_CALL_SEQUENCES = st.lists(st.tuples(st.sampled_from(_CALLS), _TARGETS),
                           min_size=1, max_size=14)


def _apply(builder, call, node, missing):
    """One builder call; returns ``None`` or the ``CoreError`` text."""
    try:
        if call == "include_subtree":
            builder.include_subtree(
                node, on_missing=lambda n: missing.append(id_path_of(n)))
        else:
            getattr(builder, call)(node)
    except CoreError as error:
        return str(error)
    return None


def receiver_view(fragment):
    """*fragment* as its receiver records it, in canonical form:
    ``owned`` read as ``complete``, timestamps canonical, siblings
    unordered."""
    view = parse_fragment(serialize(fragment, use_cache=False))
    for node in view.iter():
        if node.get("status") == "owned":
            node.set("status", "complete")
        stamp = node.get("timestamp")
        if stamp is not None:
            node.set("timestamp", repr(float(stamp)))
    return canonical_form(view)


def _bytes(builder):
    fragment = builder.build()
    return None if fragment is None else receiver_view(fragment)


def _assert_same_answers(tree, calls):
    twin = tree.copy()
    nodes, twin_nodes = list(iter_idable(tree)), list(iter_idable(twin))
    reference, builder = ReferenceAnswerBuilder(None), AnswerBuilder(None)
    expected_missing, missing = [], []
    for step, (call, target) in enumerate(calls):
        index = target % len(nodes)
        expected = _apply(reference, call, nodes[index], expected_missing)
        got = _apply(builder, call, twin_nodes[index], missing)
        where = f"call {step}: {call}({id_path_of(nodes[index])})"
        assert got == expected, where
        assert missing == expected_missing, where
        assert _bytes(builder) == _bytes(reference), where
    # Neither builder touched the database it read.
    assert serialize(twin, use_cache=False) == \
        serialize(tree, use_cache=False)


class TestAnswerBuilderMatchesTheSeedBuilder:
    @given(site_trees(), _CALL_SEQUENCES)
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_callbacks_and_errors(self, tree, calls):
        _assert_same_answers(tree, calls)

    def test_repeated_local_inclusion_keeps_the_seed_child_order(self):
        """A second ``include_local_information`` of one node moves its
        non-IDable content behind the child stubs; the seed does that,
        so the linear builder must too."""
        tree = Element("root", attrib={"id": "R", "status": "owned"})
        hub = Element("n", attrib={"id": "0", "status": "owned",
                                   "timestamp": "7"})
        hub.append(Element("v", text="1"))
        for index in range(2):
            leaf = Element("m", attrib={"id": str(index),
                                        "status": "complete"})
            leaf.append(Element("v", text=str(index)))
            hub.append(leaf)
        hub.append(Text("tail"))
        tree.append(hub)
        calls = [("include_id_information", 1),
                 ("include_local_information", 1),
                 ("include_subtree", 0),
                 ("include_local_information", 1),
                 ("include_ancestors", 3),
                 ("include_subtree", 1)]
        _assert_same_answers(tree, calls)
        builder = AnswerBuilder(None)
        node = tree.child("n", id="0")
        builder.include_local_information(node)
        builder.include_local_information(node)
        answer = builder.build().child("n", id="0")
        assert [c.tag for c in answer.children] == ["m", "m", "v"]
        assert answer.text == "tail"
