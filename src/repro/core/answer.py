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

Statuses are rewritten for the receiver: the sender's ``owned`` and
``complete`` nodes arrive as ``complete``, ID-only nodes as
``id-complete``/``incomplete``.

The paper splices subquery answers into ``asksubquery`` placeholders
inside an annotated result document; because our wire fragments are
root-rooted, splicing is simply a merge, and the placeholder metadata
travels alongside the fragment as :class:`Subquery` records.
"""

from repro.core.errors import CoreError
from repro.core.idable import (
    id_stub,
    idable_children,
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


class Subquery:
    """A pending subquery: what to ask, where it is anchored, and why.

    ``consumed`` records how many pattern items the anchor path has
    satisfied and ``descendant_gap``/``subtree`` describe the residual
    shape; together they let the gather driver recognize when a newly
    emitted subquery is *subsumed* by one already answered (its data,
    if it existed, would have arrived in the earlier generalized
    answer), so authoritative answers are never re-asked in narrower
    form.
    """

    __slots__ = ("query", "anchor_path", "reason", "consumed",
                 "descendant_gap", "subtree")

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

    def __repr__(self):
        return f"Subquery({self.query!r}, reason={self.reason})"

    def __eq__(self, other):
        return isinstance(other, Subquery) and self.query == other.query

    def __hash__(self):
        return hash(self.query)


class AnswerBuilder:
    """Builds a wire-format fragment from a site database, in two steps.

    The ``include_*`` calls (during the QEG walk) check the sender's
    statuses and report subtree gaps, but only *record* what the answer
    includes; :meth:`build` materializes the record, lazily creating the
    root path of every included node with local ID information (C2) and
    marking statuses from the receiver's point of view.

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
        self._plan = []  # (local information?, db element), in order
        self._built = 0  # plan entries materialized so far
        self._stamp = None  # (db root, its version) at the first inclusion

    @property
    def is_empty(self):
        return not self._plan

    # ------------------------------------------------------------------
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

    def _add_child_stubs(self, target, children):
        """Append an ID stub to *target* for each of *children* without one."""
        mapping = self._mapping
        for child in children:
            if id(child) not in mapping:
                stub = id_stub(child)
                set_status(stub, Status.INCOMPLETE)
                target.append(stub)
                mapping[id(child)] = stub

    def _record(self, local, element):
        if self._stamp is None:
            top = element.root()
            self._stamp = (top, top.subtree_version)
        self._plan.append((local, element))
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
        self._record(False, element)

    def include_ancestors(self, element):
        """Include local ID information of every proper ancestor (C2).

        One step up: the parent's inclusion covers its own ancestors.
        """
        if element.parent is not None:
            self.include_id_information(element.parent)

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
        self._record(True, element)

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
        """The fragment included so far (``None`` when nothing was);
        incremental, so a build between inclusions is fine."""
        if self._stamp is not None:
            top, version = self._stamp
            if top.subtree_version != version:
                raise CoreError(
                    "the site database changed after the answer's first "
                    "inclusion; build it in the pass that included it")
        plan = self._plan
        for index in range(self._built, len(plan)):
            local, element = plan[index]
            target = self._ensure(element)
            if not local:
                if get_status(target).rank < Status.ID_COMPLETE.rank:
                    set_status(target, Status.ID_COMPLETE)
                self._add_child_stubs(target, idable_children(element))
                continue
            # Attributes (system status replaced by the receiver-view one).
            for name, value in element.attrib.items():
                if name != "status":
                    target.set(name, value)
            set_status(target, Status.COMPLETE)
            stamp = get_timestamp(element)
            if stamp is not None:
                set_timestamp(target, stamp)
            # Non-IDable content, replacing whatever scaffolding was there.
            for child in non_idable_children(target):
                target.remove(child)
            # One idable_children() pass serves the content and the stubs.
            idable = idable_children(element)
            skip = {id(child) for child in idable}
            for child in element.children:
                if id(child) not in skip:
                    target.append(child.copy())
            self._add_child_stubs(target, idable)
        self._built = len(plan)
        return self.root

