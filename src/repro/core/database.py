"""A site database: one fragment of the global document, with statuses.

Each organizing agent stores a single document fragment rooted at the
global document's root (invariant I2 guarantees the root path is always
present).  IDable nodes carry a ``status`` attribute (Section 3.2) and
owned/complete nodes carry a data ``timestamp``.

Owned data and cached data live in the same document with different
status tags, which is exactly what unifies query processing at a site
(Section 1, contribution 4).
"""

import math
import time

from repro.core.errors import CacheError, CoreError
from repro.core.idable import (
    find_by_id_path,
    format_id_path,
    id_path_of,
    idable_child_map,
    idable_children,
    iter_idable_with_paths,
    lowest_idable_ancestor_or_self,
    node_id,
    non_idable_children,
)
from repro.core.status import (
    STATUS_ATTRIBUTE,
    TIMESTAMP_ATTRIBUTE,
    Status,
    get_status,
    get_timestamp,
    set_status,
    set_timestamp,
)
from repro.xmlkit.errors import XmlStructureError
from repro.xmlkit.nodes import (
    NO_KIDS, Element, child_index, copy_subtree, is_valid_name,
    own_children, restamp, xml_string)


class SensorDatabase:
    """The document fragment stored at one site, plus its bookkeeping.

    *clock* is a zero-argument callable returning the site's local time
    in seconds; it defaults to :func:`time.time` and is replaced by the
    simulated clock in the discrete-event experiments.
    """

    def __init__(self, root, clock=None, site_id=None):
        if not isinstance(root, Element):
            raise CoreError("a SensorDatabase needs a root Element")
        self.root = root
        self.clock = clock or time.time
        self.site_id = site_id
        # The id-path index: (tag, id) path tuple -> live element, for
        # every IDable node.  Guarded by the root's subtree version
        # stamp: the database's own mutators maintain it incrementally
        # and re-stamp it; any out-of-band tree mutation (e.g. schema
        # evolution appending under an owned parent) leaves the stamp
        # behind and the next access rebuilds from scratch.
        self._index = {}
        self._index_stamp = None
        self._index_dirty = True
        self._size_cache = None
        # Durability hook: a callable receiving one mutation-record
        # dict after each successful mutation (None = no journalling).
        # Set by DurabilityManager.attach(); the records are what WAL
        # replay feeds back through repro.durability.apply_record.
        self.journal = None
        # Statistics used by the caching experiments.
        self.stats = {
            "updates_applied": 0,
            "fragments_merged": 0,
            "nodes_upgraded": 0,
            "nodes_refreshed": 0,
            "evictions": 0,
            "index_hits": 0,
            "index_misses": 0,
            "index_rebuilds": 0,
        }

    # ------------------------------------------------------------------
    # The durability journal
    # ------------------------------------------------------------------
    def _journal_record(self, kind, **fields):
        """Hand one mutation record to the attached journal (if any).

        Called *after* the in-memory mutation committed and *before*
        the mutation is acknowledged to the caller, so an acknowledged
        mutation is always on the log.
        """
        journal = self.journal
        if journal is not None:
            fields["kind"] = kind
            journal(fields)

    @staticmethod
    def _journal_path(id_path):
        """ID paths as JSON-friendly ``[[tag, id], ...]`` lists."""
        return [[entry[0], entry[1]] for entry in id_path]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, root_tag, root_id, clock=None, site_id=None,
              status=Status.INCOMPLETE):
        """A database holding only the root's ID."""
        root = Element(root_tag, attrib={"id": root_id})
        set_status(root, status)
        return cls(root, clock=clock, site_id=site_id)

    # ------------------------------------------------------------------
    # The id-path index
    # ------------------------------------------------------------------
    def _index_current(self):
        return (not self._index_dirty
                and self._index_stamp == self.root.subtree_version)

    def _ensure_index(self):
        if not self._index_current():
            self._index = dict(iter_idable_with_paths(self.root))
            self._index_stamp = self.root.subtree_version
            self._index_dirty = False
            self.stats["index_rebuilds"] += 1

    def _mark_index_current(self):
        """Re-stamp after an internal mutation maintained the index."""
        if not self._index_dirty:
            self._index_stamp = self.root.subtree_version

    def _invalidate_index(self):
        """Give up on incremental maintenance until the next rebuild."""
        self._index_dirty = True

    def _unregister_descendants(self, element, path):
        """Drop index entries for every IDable node strictly below
        *element* (whose own entry, at *path*, stays)."""
        for child in idable_children(element):
            child_path = path + (node_id(child),)
            self._unregister_descendants(child, child_path)
            self._index.pop(child_path, None)

    @staticmethod
    def _content_carries_ids(children):
        """Whether removing/adding this non-IDable content can change
        which nodes are IDable (id-bearing elements hiding in it)."""
        for child in children:
            for node in child.iter() if child.children else (child,):
                if node.attrib.get("id") is not None:
                    return True
        return False

    def debug_verify_index(self, expect_current=True):
        """Check the id-path index against a from-scratch rebuild.

        Returns a list of human-readable inconsistencies (empty =
        consistent).  A stale stamp is legal in general (the next
        access rebuilds) but with ``expect_current=True`` -- the mode
        tests use right after a database operation -- it is reported,
        since the database's own mutators must leave the index live.
        """
        problems = []
        if not self._index_current():
            if expect_current:
                problems.append("index is stale (rebuild pending)")
            return problems
        fresh = dict(iter_idable_with_paths(self.root))
        for path, element in fresh.items():
            stored = self._index.get(path)
            if stored is None:
                problems.append(f"missing entry {format_id_path(path)}")
            elif stored is not element:
                problems.append(
                    f"entry {format_id_path(path)} maps to a dead element"
                )
        for path in self._index:
            if path not in fresh:
                problems.append(f"ghost entry {format_id_path(path)}")
        return problems

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, id_path, required=False):
        """Resolve an ID path to the stored element (or ``None``).

        Well-formed paths (every hop carrying an id) resolve through
        the id-path index in one hash lookup.  Degenerate paths -- and
        index misses, which in exotic trees can still resolve linearly
        (e.g. hops through duplicated sibling ids, which the index
        deliberately excludes) -- fall back to the linear walk.
        """
        if self._index_dirty or self._index_stamp != self.root._version:
            self._ensure_index()
        try:
            # Fast path: callers usually pass the canonical tuple-of-
            # tuples spelling, which is the index key verbatim.  Index
            # keys are always well-formed, so a hit needs no validation.
            element = self._index.get(id_path)
        except TypeError:
            element = None  # list-based spelling; normalized below
        if element is None:
            key = tuple(map(tuple, id_path))
            if key and all(
                len(entry) == 2 and entry[1] is not None for entry in key
            ):
                element = self._index.get(key)
                if element is None:
                    self.stats["index_misses"] += 1
        if element is not None:
            self.stats["index_hits"] += 1
            return element
        return find_by_id_path(self.root, id_path, required=required)

    def effective_status(self, element):
        """The status governing *element*: its own, or its IDable ancestor's.

        Non-IDable nodes implicitly share the status of their lowest
        IDable ancestor (Section 3.2).
        """
        return get_status(lowest_idable_ancestor_or_self(element))

    def owns(self, element):
        return get_status(element) is Status.OWNED

    def iter_idable(self):
        """Yield every IDable node stored at this site, top-down.

        Served from the id-path index (insertion order is ancestors
        before descendants, which is all "top-down" promises).
        """
        self._ensure_index()
        return iter(list(self._index.values()))

    def owned_nodes(self):
        """All nodes this site owns."""
        return [e for e in self.iter_idable() if get_status(e) is Status.OWNED]

    def owned_paths(self):
        """ID paths of all owned nodes.

        One pass over the index -- paths are its keys, so no per-node
        walk to the root happens.
        """
        self._ensure_index()
        return [
            path
            for path, element in self._index.items()
            if get_status(element) is Status.OWNED
        ]

    def size(self):
        """Number of element nodes stored (memoized per tree version)."""
        stamp = self.root.subtree_version
        if self._size_cache is None or self._size_cache[0] != stamp:
            self._size_cache = (stamp, self.root.size())
        return self._size_cache[1]

    # ------------------------------------------------------------------
    # Sensor updates (owner side)
    # ------------------------------------------------------------------
    def apply_update(self, id_path, attributes=None, values=None,
                     require_owned=True, timestamp=None):
        """Apply a sensor update to the node at *id_path*.

        *attributes* maps attribute names to new values; *values* maps
        non-IDable child element names to new text content (children
        are created when absent).  The node's timestamp is set from the
        site clock, strictly above its previous stamp, unless
        *timestamp* pins it explicitly -- WAL replay
        passes the originally recorded timestamp so a recovered
        partition is byte-identical to one that never crashed.

        Returns the updated element.  Raises :class:`CoreError` when
        the node is not owned here (the caller should forward the
        update to the owner) or the update addresses what updates may
        not change, :class:`~repro.xmlkit.errors.XmlStructureError`
        when a name is invalid or a value holds a character XML 1.0
        forbids (it could be neither sent nor recovered), and
        :class:`UnknownNodeError` when the node is not stored at all.
        A refused update changes and journals nothing.
        """
        self._ensure_index()
        element = self.find(id_path, required=True)
        if require_owned and get_status(element) is not Status.OWNED:
            raise CoreError(
                f"site {self.site_id!r} does not own "
                f"{node_id(element)}; forward the update to the owner"
            )
        # The whole update is checked before anything changes.
        for name, value in (attributes or {}).items():
            if name in ("id", "status"):
                raise CoreError(f"updates may not modify the {name!r} attribute")
            if not is_valid_name(name):
                raise XmlStructureError(f"invalid attribute name: {name!r}")
            xml_string(value)
        for tag, text in (values or {}).items():
            child = element.child(tag)
            if child is not None and child.id is not None:
                raise CoreError(
                    f"update value {tag!r} addresses an IDable child; "
                    "updates apply only to local information"
                )
            if child is None and not is_valid_name(tag):
                raise XmlStructureError(f"invalid element name: {tag!r}")
            xml_string(text)
        previous = get_timestamp(element)
        for name, value in (attributes or {}).items():
            element.set(name, value)
        for tag, text in (values or {}).items():
            child = element.child(tag)
            if child is None:
                child = Element(tag)
                element.append(child)
            child.set_text(text)
        if timestamp is None:
            # A stamp orders the versions of a node: it rises strictly
            # with each update, also within one clock instant, so the
            # merge's newer-wins test prefers it to any older copy.
            when = self.clock()
            if previous is not None:
                when = max(when, math.nextafter(previous, math.inf))
        else:
            when = float(timestamp)
        set_timestamp(element, when)
        self.stats["updates_applied"] += 1
        # Updates touch only local information (no id/status changes,
        # created value children carry no id), so the IDable node set
        # is unchanged: re-stamp the index instead of rebuilding.
        self._mark_index_current()
        self._journal_record(
            "update",
            path=self._journal_path(id_path_of(element)),
            attributes=dict(attributes) if attributes else None,
            values=dict(values) if values else None,
            ts=when,
            require_owned=bool(require_owned),
        )
        return element

    # ------------------------------------------------------------------
    # Merging answer fragments (caching)
    # ------------------------------------------------------------------
    def store_fragment(self, fragment, handed_over=False):
        """Merge a wire-format answer *fragment* into this database.

        The fragment is a tree rooted at the global root in which each
        IDable node carries its status at the sender plus a timestamp
        on data-bearing nodes.  The merge reads it from the receiver's
        point of view: an ``owned`` node arrives as a ``complete`` copy,
        since a reply never makes its receiver an owner, and is stored
        so.  Invariants C1/C2 hold for every fragment produced by
        :mod:`repro.core.answer`, so merging preserves I1/I2.

        Merge policy per matched node (by ``(tag, id)``):

        * an ``owned`` node is never modified by a cache merge -- the
          owner's copy is authoritative (only child ID stubs it already
          has are reconciled);
        * a higher-ranked incoming status upgrades the node and brings
          its content along;
        * equal ``complete`` ranks are resolved by timestamp: newer
          data replaces older ("replaces it if a fresh copy of the same
          data is available", Section 3.3).

        An IDable child the database lacks arrives whole, as a stub
        graft and a merge into it would leave it, in one pass over the
        region (:meth:`_settle_region`).  Content and regions are copied
        out of *fragment* unless the caller passes ``handed_over=True``:
        a fragment nobody else holds (the gather driver's owner replies)
        gives them to the database.  It is left holding only the IDable
        nodes the database already held, gutted of their non-IDable
        content, with their statuses as the sender wrote them.

        Returns the stored nodes whose local information the fragment
        carried (what a reply vouches for), owned ones included, in the
        order the merge met them.
        """
        if node_id(fragment) != node_id(self.root):
            raise CacheError(
                f"fragment rooted at {node_id(fragment)} does not match "
                f"database root {node_id(self.root)}"
            )
        xml = None
        if self.journal is not None:
            # Taken before the merge (a handed-over fragment does not
            # survive it): the wire bytes journal the cache fill
            # verbatim and reuse the serialization memo the wire path
            # already populated.
            from repro.xmlkit.serializer import serialize

            xml = serialize(fragment)
        self._ensure_index()
        carried = []
        self._merge_node(self.root, fragment, (node_id(self.root),),
                         handed_over, carried)
        self.stats["fragments_merged"] += 1
        self._mark_index_current()
        if xml is not None:
            self._journal_record("fragment", xml=xml)
        return carried

    def _merge_node(self, target, incoming, path, handed_over, carried):
        target_status = get_status(target)
        incoming_status = get_status(incoming)
        if incoming_status is Status.OWNED:
            incoming_status = Status.COMPLETE

        if incoming_status.has_local_information:
            carried.append(target)
        if target_status is Status.OWNED:
            pass  # authoritative; never touched by cached data
        elif incoming_status.rank > target_status.rank:
            self._adopt_content(target, incoming, incoming_status,
                                handed_over)
            self.stats["nodes_upgraded"] += 1
        elif (
            incoming_status.rank == target_status.rank
            and incoming_status.has_local_information
        ):
            # Equal stamps are the common case (an unchanged copy): the
            # strings decide it without parsing either.
            new_time = incoming.attrib.get(TIMESTAMP_ATTRIBUTE)
            old_time = target.attrib.get(TIMESTAMP_ATTRIBUTE)
            if new_time is not None and new_time != old_time and (
                    old_time is None or float(new_time) > float(old_time)):
                self._adopt_content(target, incoming, incoming_status,
                                    handed_over)
                self.stats["nodes_refreshed"] += 1

        # Recurse into matched IDable children; bring unmatched ones in
        # whole.  A bare stub of a child held here would merge to nothing.
        idable = idable_children(incoming)
        if not idable:
            return
        keyed = idable_child_map(target)
        regions, edited = [], []
        for child in idable:
            key = node_id(child)
            existing = keyed.get(key)
            if existing is None:
                region = child if handed_over else copy_subtree(child)
                self._settle_region(region, path + (key,), key not in keyed,
                                    carried, edited)
                regions.append(region)
            elif child.children or \
                    get_status(child) is not Status.INCOMPLETE:
                self._merge_node(existing, child, path + (key,),
                                 handed_over, carried)
        if regions:
            if handed_over:
                moved = set(map(id, regions))
                incoming.children = [child for child in incoming.children
                                     if id(child) not in moved] or NO_KIDS
                incoming._kid_maps = None  # gutted under the same stamp
            for region in regions:
                region.parent = target
            own_children(target).extend(regions)
            restamp(edited)
            target._touch()

    def _settle_region(self, top, path, unique, carried, edited):
        """Store the region *top* -- an IDable child the target lacked,
        moved or copied out of a reply, not yet attached -- as a stub
        graft and a merge into it would: each IDable node in it, in
        preorder, gets the receiver's view of its status, ``id`` first
        and the other attributes in incoming order, its non-IDable
        content before its IDable children, and an index entry; a node
        without local information keeps only its id, status and IDable
        children.  A key *top* shares with the target's other children
        (not *unique*) invalidates the index.  The nodes are edited in
        place and appended to *edited*, whose caller restamps them."""
        if not unique:
            # The region collides with same-id siblings (possible only
            # in degenerate trees): IDability around it changed in ways
            # not worth tracking incrementally.
            self._invalidate_index()
        index = self._index
        upgraded = 0
        stack = [(top, path)]
        while stack:
            node, path = stack.pop()
            attrib = node.attrib
            status = get_status(node)
            kids = child_index(node)
            if kids is None:
                idable, content = (), node.children
            else:
                idable = kids.idable
                content = non_idable_children(node) \
                    if len(idable) != len(node.children) else ()
            if status.has_local_information:
                carried.append(node)
                if attrib[STATUS_ATTRIBUTE] != Status.COMPLETE.value or \
                        next(iter(attrib)) != "id":
                    attrib = {"id": attrib["id"], **attrib}
                    attrib[STATUS_ATTRIBUTE] = Status.COMPLETE.value
                    node.attrib = attrib
                if content:
                    if self._content_carries_ids(content):
                        self._invalidate_index()
                    if idable:
                        node.children = content + list(idable)
            else:
                node.attrib = {"id": attrib["id"],
                               STATUS_ATTRIBUTE: status.value}
                node.text = None
                if content:
                    for child in content:
                        child.parent = None
                    node.children = list(idable) or NO_KIDS
            if status.rank:
                upgraded += 1
            node._kid_maps = None
            edited.append(node)
            index[path] = node  # an invalidated index is rebuilt whole
            stack.extend((child, path + (node_id(child),))
                         for child in reversed(idable))
        self.stats["nodes_upgraded"] += upgraded

    def _adopt_content(self, target, incoming, incoming_status, handed_over):
        """Replace *target*'s own-level content with *incoming*'s: moved
        out of a *handed_over* fragment (left gutted and unstamped, its
        child index dropped, for its owner to drop), copied out of any
        other.  Attributes, text and the content list are swapped whole,
        under one stamp; the status is *incoming_status*, the receiver's
        view."""
        if not incoming_status.has_local_information:
            set_status(target, incoming_status)
            return
        # Attributes: the id stays, everything else is the incoming
        # node's.
        identifier = target.attrib.get("id")
        attrib = {} if identifier is None else {"id": identifier}
        for name, value in incoming.attrib.items():
            if name != "id":
                attrib[name] = str(value)
        attrib[STATUS_ATTRIBUTE] = incoming_status.value
        outgoing = non_idable_children(target)
        adopted = non_idable_children(incoming)
        # Swapping non-IDable content cannot change the IDable node set
        # -- unless id-bearing elements hide inside it (sibling id
        # collisions and the like); then stop maintaining the index
        # incrementally and let the next access rebuild.
        if self._content_carries_ids(outgoing) or \
                self._content_carries_ids(adopted):
            self._invalidate_index()
        children = target.children
        if outgoing:
            for child in outgoing:
                child.parent = None
            gone = set(map(id, outgoing))
            children = [child for child in children if id(child) not in gone]
        if handed_over:
            if adopted:
                moved = set(map(id, adopted))
                incoming.children = [child for child in incoming.children
                                     if id(child) not in moved]
                incoming._kid_maps = None  # gutted under the same stamp
        else:
            # No origin link: the stored copy must not keep the caller's
            # fragment reachable from the database.
            adopted = [copy_subtree(child) for child in adopted]
        for child in adopted:
            child.parent = target
        target.attrib = attrib
        target.text = incoming.text
        target.children = children + adopted or NO_KIDS
        target._touch()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict(self, id_path, keep_ids=False):
        """Drop cached data for the node at *id_path*.

        Data is always removed in units of local informations
        (Section 3.3, "Evicting (cached) data").  With ``keep_ids``
        the node is demoted to ``id-complete`` (its own local info is
        dropped, child IDs stay); otherwise the node is demoted to
        ``incomplete`` and its whole subtree is removed.

        Owned data cannot be evicted, nor can a subtree containing an
        owned node.
        """
        self._ensure_index()
        element = self.find(id_path, required=True)
        if get_status(element) is Status.OWNED:
            raise CacheError(f"cannot evict owned node {node_id(element)}")
        for descendant in element.descendants():
            if get_status(descendant, default=None) is Status.OWNED:
                raise CacheError(
                    f"cannot evict {node_id(element)}: descendant "
                    f"{node_id(descendant)} is owned here"
                )
        # Unregister under the element's *canonical* path, not the
        # caller's spelling: find() also accepts degenerate paths (e.g.
        # a (tag, None) hop resolved by the linear fallback), whose
        # spelling is not an index key.  If the element is not indexed
        # under its canonical path either (duplicated sibling ids), stop
        # maintaining incrementally and let the next access rebuild.
        path = tuple(id_path_of(element))
        if self._index.get(path) is not element:
            self._invalidate_index()
        if keep_ids:
            dropped = list(non_idable_children(element))
            if self._content_carries_ids(dropped):
                self._invalidate_index()
            for child in dropped:
                element.remove(child)
            element.set_text(None)
            for child in idable_children(element):
                self._unregister_descendants(child, path + (node_id(child),))
                self._demote_to_stub(child)
            set_status(element, Status.ID_COMPLETE)
        else:
            self._unregister_descendants(element, path)
            self._demote_to_stub(element)
        self.stats["evictions"] += 1
        self._mark_index_current()
        self._journal_record("evict", path=self._journal_path(path),
                             keep_ids=bool(keep_ids))
        return element

    def evict_all_cached(self):
        """Evict every cached (``complete``) node that can be evicted.

        Owned data, and any subtree containing owned data, stays.  Used
        by experiments that control cache hit ratios.  Returns the
        number of nodes evicted.
        """
        self._ensure_index()
        evicted = 0
        stack = [(self.root, (node_id(self.root),))]
        while stack:
            element, path = stack.pop()
            status = get_status(element)
            if status is Status.COMPLETE:
                has_owned_below = any(
                    get_status(d) is Status.OWNED
                    for d in element.descendants()
                )
                if not has_owned_below:
                    self._unregister_descendants(element, path)
                    self._demote_to_stub(element)
                    self.stats["evictions"] += 1
                    evicted += 1
                    continue
            stack.extend(
                (child, path + (node_id(child),))
                for child in idable_children(element)
            )
        self._mark_index_current()
        self._journal_record("evict_all")
        return evicted

    def _demote_to_stub(self, element):
        """Strip *element* to a bare ID stub.

        Callers are responsible for unregistering any IDable
        descendants from the index first.
        """
        element.clear_children()
        for name in list(element.attrib):
            if name != "id":
                element.delete_attribute(name)
        set_status(element, Status.INCOMPLETE)

    # ------------------------------------------------------------------
    # Ownership transitions (used by the migration protocol)
    # ------------------------------------------------------------------
    def mark_owned(self, id_path):
        """Promote a complete node to owned (the flip, new-owner side)."""
        self._ensure_index()
        element = self.find(id_path, required=True)
        if not get_status(element).has_local_information:
            raise CoreError(
                f"cannot take ownership of {node_id(element)}: local "
                "information is not stored (fetch it first)"
            )
        set_status(element, Status.OWNED)
        self._mark_index_current()  # status flips keep the node set
        self._journal_record(
            "mark_owned", path=self._journal_path(id_path_of(element)))
        return element

    def release_ownership(self, id_path):
        """Demote an owned node to complete (migration step 3, old owner)."""
        self._ensure_index()
        element = self.find(id_path, required=True)
        if get_status(element) is not Status.OWNED:
            raise CoreError(f"{node_id(element)} is not owned here")
        set_status(element, Status.COMPLETE)
        self._mark_index_current()
        self._journal_record(
            "release_ownership",
            path=self._journal_path(id_path_of(element)))
        return element

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Write the site fragment (statuses, timestamps and all) to a
        file, so an organizing agent can restart from disk."""
        from repro.xmlkit.serializer import write_file

        write_file(self.root, path, pretty=True)

    @classmethod
    def load(cls, path, clock=None, site_id=None):
        """Restore a database previously written by :meth:`save`."""
        from repro.xmlkit.parser import parse_file

        document = parse_file(path)
        return cls(document.root, clock=clock, site_id=site_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self):
        """A compact status summary, for debugging and tests."""
        self._ensure_index()
        lines = []
        for path, element in self._index.items():
            status = get_status(element)
            stamp = get_timestamp(element)
            suffix = f" t={stamp:.0f}" if stamp is not None else ""
            lines.append(f"{format_id_path(path)} [{status.value}]{suffix}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"SensorDatabase(site={self.site_id!r}, root={node_id(self.root)}, "
            f"nodes={self.size()})"
        )
