"""Wire-format answers: cacheable fragments exchanged between sites.

Every inter-site answer in this system is a *generalized* fragment
(Section 3.3): rather than the bare XPath result, a site returns the
smallest superset of the answer that satisfies the cache invariants

* **(C1)** the fragment is a union of local informations and local ID
  informations of document nodes, and
* **(C2)** whenever it contains (ID) information for a node it also
  contains the local ID information of the node's parent (hence of all
  ancestors).

Such a fragment is rooted at the global document root and can be merged
into any site database while preserving invariants I1/I2 -- this is
what makes the paper's aggressive, partial-match caching sound.  The
receiving site merges it and walks the query again: that walk's
matches, once it asks for nothing more, are the user-visible answer.
Only a site that ships a fragment builds one.

A fragment carries the sender's statuses: a node with local
information arrives ``owned`` or ``complete`` as the sender stores it,
and the receiver's merge records it ``complete`` (a reply never makes
its receiver an owner).  So a region the sender holds whole leaves as
it is stored: the reply *lends* the stored subtree, and the serializer
writes it from the subtree's version-stamped memo.  A lent subtree
never leaves the serving site's guard as a live object: the envelope
is serialized inside the hold, and a receiver in the same process gets
the reply with a copy, taken there, in place of each lent subtree.

The paper splices subquery answers into ``asksubquery`` placeholders
inside an annotated result document; because our wire fragments are
root-rooted, splicing is simply a merge, and the placeholder metadata
travels alongside the fragment as :class:`Subquery` records.
"""

from repro.core.errors import CoreError
from repro.core.idable import (
    id_stub,
    idable_children,
    iter_idable,
    node_id,
    non_idable_children,
    subtree_materialized,
)
from repro.core.status import STATUS_ATTRIBUTE, Status, get_status
from repro.xmlkit.nodes import copy_subtree, own_children, restamp


class Subquery:
    """A pending subquery: what to ask, where it is anchored, and why.

    ``consumed`` records how many pattern items the anchor path has
    satisfied and ``descendant_gap``/``subtree`` describe the residual
    shape; together they let the gather driver recognize when a newly
    emitted subquery is *subsumed* by one already answered (its data,
    if it existed, would have arrived in the earlier generalized
    answer), so authoritative answers are never re-asked in narrower
    form.

    ``served_by`` is the tag of an ask another site answered in its
    owner's place (read failover): the completeness report's
    ``served_by_replica`` entry, ``None`` for an ordinary reply.
    ``fold`` marks a rollup's ask (:mod:`repro.agg`): ``(step, bound)``,
    the last step its owner's fold reads off each match and the ask's
    freshness bound, so the owner answers it with a partial; ``None``
    for a path ask.
    """

    __slots__ = ("query", "anchor_path", "reason", "consumed",
                 "descendant_gap", "subtree", "served_by", "fold")

    # Reasons mirror the QEG cases of Section 3.5 / 4.
    INCOMPLETE = "incomplete"            # only the node's ID is stored
    ID_COMPLETE = "id-complete"          # local information missing
    UNSEPARABLE = "unseparable-predicates"
    STALE = "stale-cache"                # consistency predicate failed
    MISSING_SUBTREE = "missing-subtree"  # result subtree partly absent
    NESTED_FETCH = "nested-fetch"        # nesting depth > 0 collect point

    def __init__(self, query, anchor_path, reason, consumed=None,
                 descendant_gap=False, subtree=False):
        self.query = query
        self.anchor_path = tuple(tuple(entry) for entry in anchor_path)
        self.reason = reason
        self.consumed = consumed
        self.descendant_gap = descendant_gap
        self.subtree = subtree
        self.served_by = None
        self.fold = None

    def __repr__(self):
        return f"Subquery({self.query!r}, reason={self.reason})"

    def __eq__(self, other):
        return isinstance(other, Subquery) and self.query == other.query

    def __hash__(self):
        return hash(self.query)


#: Plan entry kinds: a node's local ID information, its local
#: information, or its whole subtree lent as stored.
_ID, _LOCAL, _WHOLE = 0, 1, 2


class AnswerBuilder:
    """Builds a wire-format fragment from a site database, in two steps.

    The ``include_*`` calls (during the QEG walk) check the sender's
    statuses and report subtree gaps, but only *record* what the answer
    includes; :meth:`build` materializes the record, lazily creating the
    root path of every included node with local ID information (C2).

    A subtree whose every IDable node has local information here is
    recorded once and *lent*: :meth:`build` lists the stored element
    itself in the reply's skeleton, in place of the ID stub its parent's
    ID information put there, and an inclusion inside it later is a
    no-op.  Any other included node is rebuilt in the skeleton with the
    stored attributes (status and timestamp as stored) and copies of its
    non-IDable content.

    Both steps cost O(nodes included): the record remembers which
    database elements already have their ID information -- hence that
    of their whole ancestor chain -- in the answer, so including it
    again is a set lookup that skips the status check the first
    inclusion passed.  That is sound only while the database holds
    still from the first inclusion to the build, which :meth:`build`
    checks against the root's subtree version stamp.
    """

    def __init__(self, database):
        self.database = database
        self.root = None
        self._mapping = {}  # id(db element) -> answer element
        self._id_included = set()  # id(db element) with ID information in
        self._whole = set()  # id(db element) inside a lent subtree
        self._plan = []  # (_ID / _LOCAL / _WHOLE, db element), in order
        self._built = 0  # plan entries materialized so far
        self._stamp = None  # (db root, its version) at the first inclusion

    @property
    def is_empty(self):
        return not self._plan

    # ------------------------------------------------------------------
    # The skeleton: the answer's own IDable nodes, private until build()
    # returns, filled by direct dict and list edits (the names come from
    # the database, already checked) and stamped once per build().
    def _ensure(self, element):
        """Answer-side element for *element*, creating ancestors as needed.

        The stub of every IDable child is put in the mapping when it is
        appended, so the sibling scan below only runs for an element
        that is not an IDable child of its parent.
        """
        key = id(element)
        if key in self._mapping:
            return self._mapping[key]
        chain = element.path_from_root()
        if self.root is None:
            top = chain[0]
            self.root = id_stub(top, Status.INCOMPLETE)
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
                found = id_stub(db_node, Status.INCOMPLETE)
                found.parent = current
                own_children(current).append(found)
            self._mapping[key] = found
            current = found
        return current

    def _add_child_stubs(self, target, children):
        """Append an ID stub to *target* for each of *children* without one."""
        mapping = self._mapping
        for child in children:
            if id(child) not in mapping:
                stub = id_stub(child, Status.INCOMPLETE)
                stub.parent = target
                own_children(target).append(stub)
                mapping[id(child)] = stub

    def _record(self, kind, element):
        if self._stamp is None:
            top = element.root()
            self._stamp = (top, top.subtree_version)
        self._plan.append((kind, element))
        self._id_included.add(id(element))

    # ------------------------------------------------------------------
    def include_id_information(self, element):
        """Include the local ID information of *element* (pass-through node).

        The sender must itself hold at least the node's local ID
        information (guaranteed by I2 for any node it stores data
        below).
        """
        if id(element) in self._id_included:
            return
        status = get_status(element)
        if not status.has_id_information:
            raise CoreError(
                f"cannot include ID information of {node_id(element)}: "
                f"sender only has status {status.value}"
            )
        self.include_ancestors(element)
        self._record(_ID, element)

    def include_ancestors(self, element):
        """Include local ID information of every proper ancestor (C2).

        One step up: the parent's inclusion covers its own ancestors.
        """
        if element.parent is not None:
            self.include_id_information(element.parent)

    def include_local_information(self, element):
        """Include the full local information of *element*, with the
        status it is stored under (the receiver records ``complete``)."""
        if id(element) in self._whole:
            return
        status = get_status(element)
        if not status.has_local_information:
            raise CoreError(
                f"cannot include local information of {node_id(element)}: "
                f"sender only has status {status.value}"
            )
        self.include_ancestors(element)
        self._record(_LOCAL, element)

    def include_subtree(self, element, on_missing=None):
        """Include local information of *element* and all its descendants.

        XPath answers are whole subtrees, so a result node drags in the
        local information of every IDable node beneath it.  For
        descendants whose local information the sender lacks,
        *on_missing(descendant)* is invoked (the QEG walker emits a
        subquery there); with no callback the gap is silently included
        as ID-only data.  A subtree without such a gap (its child
        index's ``whole`` flag), below the root, is lent whole.
        """
        if id(element) in self._whole:
            return
        if element.parent is not None and subtree_materialized(element):
            self._lend(element)
            return
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

    def _lend(self, element):
        """Record *element*'s subtree, every IDable node of which has
        local information here, as one lent entry."""
        self.include_ancestors(element)
        self._record(_WHOLE, element)
        inside = [id(node) for node in iter_idable(element)]
        self._whole.update(inside)
        self._id_included.update(inside)

    # ------------------------------------------------------------------
    def build(self):
        """The fragment included so far (``None`` when nothing was);
        incremental, so a build between inclusions is fine.  It lists
        the lent stored subtrees without adopting them."""
        if self._stamp is not None:
            top, version = self._stamp
            if top.subtree_version != version:
                raise CoreError(
                    "the site database changed after the answer's first "
                    "inclusion; build it in the pass that included it")
        plan = self._plan
        if self._built == len(plan):
            return self.root
        mapping = self._mapping
        for index in range(self._built, len(plan)):
            kind, element = plan[index]
            if kind == _WHOLE:
                # The parent's ID information put a stub (or an earlier
                # inclusion a rebuilt node) where the stored one goes.
                kids = self._ensure(element.parent).children
                kids[kids.index(mapping[id(element)])] = element
                mapping[id(element)] = element
                continue
            target = self._ensure(element)
            attrib = target.attrib
            if kind == _ID:
                if get_status(target).rank < Status.ID_COMPLETE.rank:
                    attrib[STATUS_ATTRIBUTE] = Status.ID_COMPLETE.value
                self._add_child_stubs(target, idable_children(element))
                continue
            attrib.update(element.attrib)
            # Non-IDable content, replacing whatever scaffolding was
            # there.  The skeleton is edited in place and restamped only
            # when the build ends, so its child index is dropped first.
            target.text = element.text
            if target.children:
                target._kid_maps = None
                stale = non_idable_children(target)
                if stale:
                    for child in stale:
                        child.parent = None
                    gone = set(map(id, stale))
                    target.children = [child for child in target.children
                                       if id(child) not in gone]
            # One idable_children() read serves the content and the stubs.
            idable = idable_children(element)
            skip = {id(child) for child in idable}
            for child in element.children:
                if id(child) not in skip:
                    copy = child.copy()
                    copy.parent = target
                    own_children(target).append(copy)
            self._add_child_stubs(target, idable)
        # Stored nodes keep their stamps (so do skeleton nodes a lent
        # subtree replaced: nothing reaches them any more).
        whole = self._whole
        restamp([node for key, node in mapping.items() if key not in whole])
        self._built = len(plan)
        return self.root


def private_copy(fragment):
    """A built *fragment* as its receiver may keep it: the reply's
    skeleton is kept, and each stored subtree it lends is swapped for a
    copy.

    For a receiver in the serving site's process, under the serving
    site's guard.  The skeleton is the reply's alone, so it is neither
    copied nor disposed: each skeleton node whose children changed is
    restamped, and the origin links its content copies keep into the
    serving database (:meth:`Element.copy`) are dropped.  A lent child
    is the one whose ``parent`` is not the skeleton node listing it.
    """
    stack = [fragment]
    while stack:
        node = stack.pop()
        node._ser_origin = None
        swapped = False
        kids = node.children
        for index, child in enumerate(kids):
            if child.parent is node:
                stack.append(child)
            else:
                kids[index] = copy = copy_subtree(child)
                copy.parent = node
                swapped = True
        if swapped:
            node._touch()
    return fragment


class GapFinder(AnswerBuilder):
    """The builder of a walk whose answer never ships (a user query's,
    a scalar's, a rollup's): it includes nothing, and
    :meth:`include_subtree` still reports every gap below a result."""

    def include_id_information(self, element):
        pass

    include_ancestors = include_local_information = include_id_information

    def include_subtree(self, element, on_missing=None):
        stack = [element]
        while stack:
            node = stack.pop()
            if subtree_materialized(node):
                continue
            if get_status(node).has_local_information:
                stack.extend(idable_children(node))
            elif on_missing is not None:
                on_missing(node)
