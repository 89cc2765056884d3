"""Properties of the per-element child index.

Every structural question the walk, the answer builder and the merge
ask of an element's children -- which are IDable, what ``(tag, id)``
names, whether the whole region below has local information -- is
answered by :func:`repro.xmlkit.nodes.child_index`, once per version
stamp of the element.  Checked here against the definitions:

(a) after random mutation sequences (the mutators, setting and deleting
    ids, both merge modes, ``evict``, an answer builder's skeleton,
    ``dispose`` and a field rename), every element's index reads what a
    recomputation from its ``children`` reads;
(b) a walk that looks exact pins up in the index matches, asks and
    builds exactly what the walk testing every child does, over
    documents with duplicate sibling ids, non-exact pins and ``//``;
(c) the ``whole`` flag follows a status change below the element.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import AnswerBuilder, CacheError, CoreError, SensorDatabase
from repro.core.evolution import rename_field
from repro.core.idable import (
    id_path_of,
    idable_child_map,
    idable_children,
    iter_idable,
    locally_idable,
    non_idable_children,
    subtree_materialized,
)
from repro.core.qeg import _compile, _Walker
from repro.core.status import Status, get_status, set_status
from repro.xmlkit import Element, parse_fragment, serialize
from repro.xmlkit.nodes import copy_subtree

from tests.property.test_prop_answer_builder import site_trees
from tests.property.test_prop_id_pins import _Schema, _queries


# ----------------------------------------------------------------------
# The definitions, by scanning the children
# ----------------------------------------------------------------------
def _reference_keyed(element):
    keyed = {}
    for child in element.children:
        identifier = child.attrib.get("id")
        if identifier is not None:
            key = (child.tag, identifier)
            keyed[key] = None if key in keyed else child
    return keyed


def _reference_idable(element):
    return [child for child in _reference_keyed(element).values()
            if child is not None]


def _reference_whole(element):
    stack = [element]
    while stack:
        node = stack.pop()
        if not get_status(node).has_local_information:
            return False
        stack.extend(_reference_idable(node))
    return True


def _assert_index_current(tree):
    for element in tree.iter():
        idable = _reference_idable(element)
        assert list(idable_children(element)) == idable
        assert idable_child_map(element) == _reference_keyed(element)
        unique = set(map(id, idable))
        assert non_idable_children(element) == [
            child for child in element.children if id(child) not in unique]
        for child in element.children:
            assert locally_idable(child) == (id(child) in unique)
            first = next(c for c in element.children if c.tag == child.tag
                         and child.id in (None, c.id))
            assert element.child(child.tag, id=child.id) is first
        if element.get("status") in (None, *(s.value for s in Status)):
            assert subtree_materialized(element) == _reference_whole(element)


# ----------------------------------------------------------------------
# (a) mutation sequences
# ----------------------------------------------------------------------
_OPS = ("set", "id", "unid", "status", "append", "remove", "text",
        "merge", "handover", "evict", "skeleton", "dispose", "rename")
_IDS = ("0", "1", "twin")


class _Choices:
    """Choices drawn up front: each :meth:`pick` takes the next number."""

    def __init__(self, numbers):
        self.numbers = list(numbers)

    def pick(self, options):
        options = list(options)
        return options[(self.numbers.pop() if self.numbers else 0)
                       % len(options)]


def _fragment_of(database, choose):
    """A wire fragment of a copy of *database*: some subtree included."""
    twin = SensorDatabase(database.root.copy())
    nodes = list(iter_idable(twin.root))
    builder = AnswerBuilder(twin)
    try:
        builder.include_subtree(choose.pick(nodes))
    except CoreError:
        return None
    return builder.build()


def _mutate(choose, database, op):
    root = database.root
    elements = list(root.iter())
    below = elements[1:]
    if op == "set":
        choose.pick(elements).set("zone", choose.pick(_IDS))
    elif op == "id" and below:
        choose.pick(below).set("id", choose.pick(_IDS))
    elif op == "unid" and below:
        choose.pick(below).delete_attribute("id")
    elif op == "status":
        set_status(choose.pick(elements), choose.pick(Status))
    elif op == "append":
        child = Element(choose.pick(("n", "m", "v")))
        if choose.pick((False, True)):
            child.set("id", choose.pick(_IDS))
            child.set("status", choose.pick(Status).value)
        choose.pick(elements).append(child)
    elif op == "remove" and below:
        choose.pick(below).detach()
    elif op == "text":
        choose.pick(elements).set_text(choose.pick((None, "x")))
    elif op in ("merge", "handover"):
        fragment = _fragment_of(database, choose)
        if fragment is not None:
            fragment = copy_subtree(fragment)
            _assert_index_current(fragment)
            database.store_fragment(fragment, handed_over=op == "handover")
            _assert_index_current(fragment)
    elif op == "evict":
        node = choose.pick(list(iter_idable(root)))
        try:
            database.evict(id_path_of(node),
                           keep_ids=choose.pick((False, True)))
        except (CacheError, CoreError):
            pass
    elif op == "skeleton":
        builder = AnswerBuilder(database)
        nodes = list(iter_idable(root))
        for _ in range(2):  # incremental: a build between inclusions
            try:
                builder.include_subtree(choose.pick(nodes))
                builder.include_local_information(choose.pick(nodes))
            except CoreError:
                pass
            fragment = builder.build()
            if fragment is not None:
                _assert_index_current(fragment)
    elif op == "dispose":
        private = copy_subtree(choose.pick(elements))
        _assert_index_current(private)
        private.dispose()
        _assert_index_current(private)
    elif op == "rename":
        owner = choose.pick(list(iter_idable(root)))
        fields = [child for child in owner.children
                  if owner.child(child.tag).id is None]
        if fields and get_status(owner) is Status.OWNED:
            rename_field(database, id_path_of(owner), fields[0].tag, "w")


_STEPS = st.lists(st.tuples(st.sampled_from(_OPS),
                            st.lists(st.integers(0, 1000), max_size=4)),
                  max_size=8)


class TestTheIndexFollowsEveryMutation:
    @given(site_trees(), _STEPS)
    @settings(max_examples=250, deadline=None)
    def test_the_index_reads_what_the_children_say(self, tree, steps):
        database = SensorDatabase(tree)
        _assert_index_current(tree)
        for op, numbers in steps:
            _mutate(_Choices(numbers), database, op)
            _assert_index_current(database.root)

    def test_a_handed_over_fragment_is_gutted_with_its_index(self):
        # The fragment's index is read before its content moves out,
        # under a stamp the gutting leaves as it was.
        database = SensorDatabase(parse_fragment(
            '<root id="R" status="id-complete"><n id="0" status="incomplete"/>'
            '</root>'))
        fragment = parse_fragment(
            '<root id="R" status="complete" timestamp="1">'
            '<n id="twin">0</n><n id="twin">1</n><v>2</v>'
            '<n id="0" status="incomplete"/></root>')
        _assert_index_current(fragment)
        database.store_fragment(fragment, handed_over=True)
        assert [child.tag for child in fragment.children] == ["n"]
        _assert_index_current(fragment)
        _assert_index_current(database.root)


# ----------------------------------------------------------------------
# (b) the pinned lookup against the full scan
# ----------------------------------------------------------------------
class _FullScan(_Walker):
    """The walk testing every child of every element it descends."""

    def _candidates(self, element, threads):
        return element.children


def _outcome(walker_class, tree, pattern, ships):
    walker = walker_class(SensorDatabase(tree, clock=lambda: 20.0), pattern,
                          20.0, ships=ships)
    try:
        result = walker.run()
    except CoreError as error:
        return (type(error).__name__, str(error))
    stats = dict(result.stats)
    del stats["prunes"]  # siblings a lookup never tests are not pruned
    return (
        [id(match) if isinstance(match, Element) else id(match.parent)
         for match in result.matches],
        [(s.query, s.reason, s.consumed, s.subtree, s.descendant_gap)
         for s in result.subqueries],
        None if result.answer is None
        else serialize(result.answer, use_cache=False),
        stats,
    )


#: Owned twins: neither is IDable, both match their pin as content.
_OWNED_TWINS = parse_fragment(
    '<root id="R" status="owned"><n id="twin">0</n><n id="twin">1</n>'
    '<n id="0" status="owned"/></root>')


class TestThePinnedLookupMatchesTheScan:
    @given(site_trees(), _queries(), st.sampled_from((None, _Schema)),
           st.booleans())
    @example(_OWNED_TWINS, "/root[@id='R']/n[@id='twin']", None, True)
    @example(_OWNED_TWINS, "/root[@id='R']/n[@id='twin' or @id='0']", None,
             False)
    @settings(max_examples=400, deadline=None)
    def test_same_matches_asks_and_fragment(self, tree, query, schema,
                                            ships):
        pattern = _compile(query, schema)
        assert _outcome(_Walker, tree, pattern, ships) == \
            _outcome(_FullScan, tree, pattern, ships), query


# ----------------------------------------------------------------------
# (c) the whole-region flag
# ----------------------------------------------------------------------
def test_the_whole_flag_follows_a_status_below():
    database = SensorDatabase(parse_fragment(
        '<root id="R" status="owned"><a id="1" status="complete">'
        '<b id="2" status="complete"><v>1</v></b></a></root>'))
    root = database.root
    a = root.child("a", id="1")
    b = a.child("b", id="2")
    assert subtree_materialized(root) and subtree_materialized(a)
    database.evict(id_path_of(b))
    assert get_status(b) is Status.INCOMPLETE
    assert not subtree_materialized(root) and not subtree_materialized(a)
    fragment = parse_fragment(
        '<root id="R" status="id-complete"><a id="1" status="id-complete">'
        '<b id="2" status="owned"><v>2</v></b></a></root>')
    database.store_fragment(fragment, handed_over=True)
    assert get_status(b) is Status.COMPLETE
    assert subtree_materialized(root) and subtree_materialized(a)
    set_status(b, Status.ID_COMPLETE)
    assert not subtree_materialized(root)
    walk = _Walker(database, _compile("/root[@id='R']/a[@id='1']"), None,
                   ships=False).run()
    assert [s.anchor_path[-1] for s in walk.subqueries] == [("b", "2")]
