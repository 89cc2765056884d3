"""The XML node model used throughout the reproduction.

The model is deliberately small and data-centric, matching the paper's
use of XML: elements with string attributes, element children and
character data.  There are no namespaces, processing instructions or
mixed-content subtleties -- sensor documents are trees of elements whose
leaves carry values (e.g. ``<available>yes</available>``).

Character data is one trailing string per element, its ``text`` slot
after its child elements: ``children`` holds elements only.

Documents are treated as *unordered*: sibling order carries no meaning
(Section 3.1 of the paper).  The in-memory representation necessarily
keeps children in a list, but all comparison and caching logic in the
rest of the system is order-insensitive.

Most elements of a sensor document are leaves without attributes, so
an element with no children holds the shared :data:`NO_KIDS` and one
with no attributes the shared :data:`NO_ATTRS`: both read as an empty
``list`` / ``dict``, and every mutator of theirs raises ``TypeError``.
The :class:`Element` mutators give an element a private container on
its first write.  Code that edits ``children`` or ``attrib`` directly
allocates first (:func:`own_children`, or a fresh dict).
"""

import functools
import itertools
import re

from repro.xmlkit.errors import XmlStructureError

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789-.")

#: Global monotone clock for subtree version stamps.  Every mutation of
#: an element (attributes, text, children) stamps the element and all
#: its ancestors with a fresh reading, so ``subtree_version`` changes
#: iff anything inside the subtree changed.  A subtree built whole
#: (:meth:`Element.assemble`, the parser; :func:`copy_subtree`, every
#: copy) is stamped once per finished element instead: one
#: with children reads the clock after all of them, so it is stamped
#: higher than every descendant, and one without children is stamped 0.
#: Consumers (the id-path index in :mod:`repro.core.database`, the
#: serialization memo in :mod:`repro.xmlkit.serializer`, the
#: per-element child index below) compare stamps instead of hashing
#: content, and rely on that order.
_VERSION_CLOCK = itertools.count(1)

_ABSENT = object()

#: Bound of the name-check memo.  A deployment uses a few dozen element
#: and attribute names, and every ``Element()`` / ``set()`` checks one.
NAME_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=NAME_MEMO_SIZE)
def is_valid_name(name):
    """Return ``True`` if *name* is a legal element/attribute name.

    We accept the common subset of XML names: a letter or underscore
    followed by letters, digits, hyphens, dots and underscores.
    """
    if not name:
        return False
    if name[0] not in _NAME_START:
        return False
    return all(ch in _NAME_CHARS for ch in name[1:])


#: A character XML 1.0 allows nowhere in a document (its ``Char``
#: production), neither raw nor as a character reference.
FORBIDDEN_CHARACTER = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def xml_string(value):
    """The string form of *value*, which an element may hold.

    Raises :class:`XmlStructureError` when it holds a character XML 1.0
    forbids: no document can carry one, so the value could be neither
    sent nor read back from a checkpoint.  Every attribute value and
    text that enters a tree through :class:`Element` passes here.
    """
    value = str(value)
    found = FORBIDDEN_CHARACTER.search(value)
    if found is not None:
        raise XmlStructureError(
            f"U+{ord(found.group()):04X} is not allowed in XML 1.0: "
            f"{value!r}")
    return value


def _refuse(self, *args, **kwargs):
    raise TypeError(
        "a shared empty is never edited: give the element its own "
        "container first (own_children, or a fresh dict)")


class _NoKids(list):
    """The type of :data:`NO_KIDS`: an empty list that stays empty."""

    __slots__ = ()

    append = extend = insert = remove = pop = clear = sort = reverse = \
        __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse

    def __reduce__(self):
        return "NO_KIDS"


class _NoAttrs(dict):
    """The type of :data:`NO_ATTRS`: an empty dict that stays empty."""

    __slots__ = ()

    __setitem__ = __delitem__ = pop = popitem = update = setdefault = \
        clear = __ior__ = _refuse

    def __reduce__(self):
        return "NO_ATTRS"


#: The ``children`` of every element built without children, and the
#: ``attrib`` of every element built without attributes.  Copying or
#: pickling either gives the same object back.
NO_KIDS = _NoKids()
NO_ATTRS = _NoAttrs()


def own_children(element):
    """*element*'s ``children``, made a private list if it was the
    shared :data:`NO_KIDS`: for code that appends to it directly."""
    children = element.children
    if children is NO_KIDS:
        children = element.children = []
    return children


class Text:
    """A character-data node, outside the tree: the XPath view of an
    element's ``text`` (``Text(element.text, element)``: the *parent*
    is the element), or a text result detached from it."""

    __slots__ = ("value", "parent")

    def __init__(self, value, parent=None):
        self.value = str(value)
        self.parent = parent

    def copy(self):
        """Return a detached copy of this text node."""
        return Text(self.value)

    def __repr__(self):
        preview = self.value if len(self.value) <= 30 else self.value[:27] + "..."
        return f"Text({preview!r})"

    def __eq__(self, other):
        return isinstance(other, Text) and self.value == other.value

    def __hash__(self):
        return hash(("Text", self.value))


class Element:
    """An XML element: a tag, a dict of attributes, child elements and
    ``text``, one string after them (``None`` for ``<a/>``, ``""`` for
    ``<a></a>``).

    Parent pointers and stamps are maintained by the mutation methods
    (:meth:`append`, :meth:`remove`, :meth:`set_text`, ...), which is
    what allows the XPath engine to support the ``parent`` and
    ``ancestor`` axes.

    What is memoized on an element -- its serialization, its
    :class:`ChildIndex` -- is valid while its version stamp is
    unchanged.  Code that edits ``attrib``, ``children`` or ``text``
    directly, bypassing the mutators (a builder filling a private
    skeleton, a merge gutting a fragment it was handed, the merge's
    region pass settling a region it brought in whole), leaves the
    stamp as it was: it either restamps what it edited
    (:func:`restamp`), clears ``_kid_maps`` there, or never reads
    either memo of the edited elements until they are restamped.

    An element without children holds :data:`NO_KIDS`, and one without
    attributes :data:`NO_ATTRS`.  A direct edit of a leaf's
    ``children`` or ``attrib`` allocates first (:func:`own_children`)
    or assigns a fresh container: editing a shared empty raises
    ``TypeError``.
    """

    __slots__ = ("tag", "attrib", "children", "text", "parent",
                 "_version", "_ser_cache", "_kid_maps", "_ser_origin")

    def __init__(self, tag, attrib=None, children=(), text=None):
        if not is_valid_name(tag):
            raise XmlStructureError(f"invalid element name: {tag!r}")
        self.tag = tag
        self.attrib = dict(attrib) if attrib else NO_ATTRS
        for name, value in self.attrib.items():
            if not is_valid_name(name):
                raise XmlStructureError(f"invalid attribute name: {name!r}")
            xml_string(value)
        self.children = NO_KIDS
        self.text = None
        self.parent = None
        self._version = 0
        self._ser_cache = None
        self._kid_maps = None
        self._ser_origin = None
        for child in children:
            self.append(child)
        if text is not None:
            self.text = (self.text or "") + xml_string(text)

    @classmethod
    def assemble(cls, tag, attrib, children, text=None):
        """A finished element around *children* and *text*, stamped once.

        The bulk constructor of the parser and of ID stubs (copies
        build theirs in :func:`copy_subtree`).  The caller vouches for what :meth:`__init__`
        and :meth:`append` would check: *tag* and the names in *attrib*
        are valid, *attrib* is a dict the element may keep, and every
        node in *children* is detached and already finished.  Nothing
        can read the element before it is filled, so one fresh stamp --
        higher than any of its descendants' -- marks it, and a childless
        one stays at 0.
        """
        node = cls.__new__(cls)
        node.tag = tag
        node.attrib = attrib or NO_ATTRS
        node.text = text
        node.parent = None
        node._ser_cache = None
        node._kid_maps = None
        node._ser_origin = None
        if children:
            node.children = children
            for child in children:
                child.parent = node
            node._version = next(_VERSION_CLOCK)
        else:
            node.children = NO_KIDS
            node._version = 0
        return node

    def dispose(self):
        """Release a private tree its one owner is dropping.

        Every ``Element`` <-> ``parent`` pair is a reference cycle, so a
        dropped tree is otherwise left to the cycle collector.  This
        clears ``children`` (``text`` is in no cycle), the child index and
        the origin link of this element and of every descendant, going
        down only into a child whose ``parent`` is the element being
        cleared: a payload the tree merely lists (a lent one, see
        ``repro.net.messages``) or a child another tree has adopted since
        is never touched.  Called
        only where the code holds the one reference to the tree: a
        message envelope after it is serialized or decoded, a handed-
        over reply after its merge, a served reply after it is framed.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            children = node.children
            node.children = NO_KIDS
            node._kid_maps = None
            node._ser_origin = None
            for child in children:
                if child.parent is node:
                    stack.append(child)

    # ------------------------------------------------------------------
    # Version stamps
    # ------------------------------------------------------------------
    @property
    def subtree_version(self):
        """A stamp that changes whenever anything in this subtree changes.

        Two readings being equal guarantees no mutation happened in
        between (stamps are never reused); the converse does not hold.
        """
        return self._version

    def _touch(self):
        """Stamp this element and its ancestors afresh, dropping their
        child indexes: none of them holds a child it no longer has."""
        stamp = next(_VERSION_CLOCK)
        node = self
        while node is not None:
            node._version = stamp
            node._kid_maps = None
            node = node.parent

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------
    def get(self, name, default=None):
        """Return attribute *name*, or *default* if absent."""
        return self.attrib.get(name, default)

    def set(self, name, value):
        """Set attribute *name* to the string form of *value*."""
        if not is_valid_name(name):
            raise XmlStructureError(f"invalid attribute name: {name!r}")
        value = xml_string(value)
        attrib = self.attrib
        if attrib.get(name, _ABSENT) != value:
            if attrib is NO_ATTRS:
                attrib = self.attrib = {}
            attrib[name] = value
            self._touch()

    def delete_attribute(self, name):
        """Remove attribute *name*; a no-op if it is absent."""
        attrib = self.attrib
        if attrib and attrib.pop(name, _ABSENT) is not _ABSENT:
            self._touch()

    @property
    def id(self):
        """The element's ``id`` attribute, or ``None``.

        IDable-node machinery in :mod:`repro.core` builds on this.
        """
        return self.attrib.get("id")

    # ------------------------------------------------------------------
    # Tree mutation
    # ------------------------------------------------------------------
    def append(self, node):
        """Attach the :class:`Element` *node* as the last child, or append
        a :class:`Text`'s value to the text."""
        if isinstance(node, Text):
            self.text = (self.text or "") + xml_string(node.value)
        elif not isinstance(node, Element):
            raise XmlStructureError(f"cannot append {type(node).__name__} to an element")
        elif node.parent is not None:
            raise XmlStructureError("node already has a parent; detach it first")
        else:
            node.parent = self
            own_children(self).append(node)
        self._touch()
        return node

    def extend(self, nodes):
        """Append every node in *nodes*."""
        for node in nodes:
            self.append(node)

    def remove(self, node):
        """Detach child *node* from this element."""
        try:
            self.children.remove(node)
        except (ValueError, TypeError):  # TypeError: a leaf's NO_KIDS
            raise XmlStructureError("node is not a child of this element") from None
        node.parent = None
        self._touch()

    def detach(self):
        """Detach this element from its parent (no-op if already detached)."""
        if self.parent is not None:
            self.parent.remove(self)
        return self

    def clear_children(self):
        """Remove all children and the text."""
        if not self.children and self.text is None:
            return
        for child in self.children:
            child.parent = None
        self.children = NO_KIDS
        self.text = None
        self._touch()

    def set_text(self, value):
        """Replace the character data with the string form of *value*.

        Child elements are preserved, and ``None`` removes the text.  The
        value the element holds already changes nothing, stamp included.
        """
        if value is not None:
            value = xml_string(value)
        if value != self.text:
            self.text = value
            self._touch()

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def string_value(self):
        """The XPath string-value: all descendant text, concatenated
        (an element's children, then its own text)."""
        if not self.children:
            return self.text or ""
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                parts.append(node)
                continue
            if node.text:
                stack.append(node.text)
            stack.extend(reversed(node.children))
        return "".join(parts)

    def element_children(self, tag=None):
        """Iterate over child elements, optionally filtered by *tag*."""
        for child in self.children:
            if tag is None or child.tag == tag:
                yield child

    def child(self, tag, id=None):
        """Return the first child element with *tag* (and *id*), or ``None``.

        With an *id*, an element whose :class:`ChildIndex` is current
        answers by a hash probe of it (a key two siblings share falls
        back to the scan for the first); any other lookup scans the
        children, building nothing: an element being filled changes
        between its lookups.
        """
        if id is not None:
            index = self._kid_maps
            if index is not None and index.version == self._version:
                key = (tag, id)
                found = index.by_key().get(key)
                if found is not None or key not in index.dups:
                    return found
        for node in self.children:
            if node.tag == tag and (id is None or node.attrib.get("id") == id):
                return node
        return None

    def iter(self, tag=None):
        """Depth-first iterator over this element and its descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            if tag is None or node.tag == tag:
                yield node
            stack.extend(reversed(node.children))

    def descendants(self, tag=None):
        """Like :meth:`iter` but excluding this element itself."""
        iterator = self.iter(tag=None)
        next(iterator)  # skip self
        for node in iterator:
            if tag is None or node.tag == tag:
                yield node

    def ancestors(self):
        """Iterate over ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self):
        """Return the root element of the tree containing this element."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self):
        """Number of ancestors (the root element has depth 0)."""
        return sum(1 for _ in self.ancestors())

    def path_from_root(self):
        """List of elements from the root down to (and including) self."""
        chain = [self]
        chain.extend(self.ancestors())
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    # Serialization memo (used by :mod:`repro.xmlkit.serializer`)
    # ------------------------------------------------------------------
    def cached_serialization(self, key):
        """The memoized serialization for *key*, if still valid.

        A cached string is valid only while the subtree version stamp
        it was stored under is current, i.e. nothing in the subtree has
        mutated since.
        """
        cache = self._ser_cache
        if cache is None:
            return None
        entry = cache.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        return None

    def store_serialization(self, key, text):
        """Memoize *text* as this subtree's serialization for *key*.

        If this node is a still-pristine copy of an origin that has not
        mutated since the copy was taken, the bytes are written back to
        the origin too: a short-lived copy of long-lived database
        content (a checkpoint's) leaves its bytes where the next
        serialization of that content finds them.
        """
        if self._ser_cache is None:
            self._ser_cache = {}
        self._ser_cache[key] = (self._version, text)
        # Walk the origin chain (copies of copies reach the database
        # element at the end).  Each entry is stored under the stamp
        # that was *validated*, never re-read: a concurrent mutation of
        # the source between check and store then leaves a harmlessly
        # stale entry instead of filing old bytes under a fresh stamp.
        node, stamp = self, self._version
        while True:
            origin = node._ser_origin
            if origin is None:
                break
            source, source_stamp, clone_stamp = origin
            if stamp != clone_stamp or source._version != source_stamp:
                break
            cache = source._ser_cache
            if cache is None:
                cache = source._ser_cache = {}
            cache[key] = (source_stamp, text)
            node, stamp = source, source_stamp

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self):
        """Return a detached deep copy of this subtree.

        Valid serialization memos travel with the copy: the clone is
        content-identical, so bytes cached for this subtree serialize
        the clone too, and bytes memoized on the clone are written back
        (a checkpoint serializes a copy of the database root so).  The
        answer builder copies the non-IDable content of a node it
        rebuilds with it; a region the site holds whole is lent, not
        copied.
        """
        return copy_subtree(self, carry_memo=True)

    def shallow_copy(self):
        """Return a detached copy with attributes but no children."""
        return Element(self.tag, attrib=self.attrib)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def size(self):
        """Total number of element nodes in this subtree (including self)."""
        return sum(1 for _ in self.iter())

    def __repr__(self):
        ident = f" id={self.id!r}" if self.id is not None else ""
        return f"<Element {self.tag}{ident} children={len(self.children)}>"


#: The ``dups`` of an index whose id-bearing children all differ.
_NO_KEYS = frozenset()


class ChildIndex:
    """What an element's id-bearing children answer, at one version
    stamp of the element (:func:`child_index`).

    ``idable``
        the children whose ``(tag, id)`` no sibling shares, in
        document order: the IDable children of an IDable element;
    ``dups``
        the ``(tag, id)`` keys two or more siblings share;
    ``whole``
        a flag :mod:`repro.core.idable` computes on its first read
        (``None`` until then): whether every IDable node at or below
        the element has its local information stored.

    :meth:`by_key` adds the ``(tag, id) -> child`` map on first use,
    so only an element a lookup by key reaches pays for one.
    """

    __slots__ = ("version", "idable", "dups", "keyed", "whole")

    def __init__(self, version, idable, dups):
        self.version = version
        self.idable = idable
        self.dups = dups
        self.keyed = None
        self.whole = None

    def by_key(self):
        """``(tag, id) -> child`` over the id-bearing children; a key
        two siblings share maps to ``None``."""
        keyed = self.keyed
        if keyed is None:
            keyed = {(child.tag, child.attrib["id"]): child
                     for child in self.idable}
            for key in self.dups:
                keyed[key] = None
            self.keyed = keyed
        return keyed


def child_index(element):
    """*element*'s :class:`ChildIndex`, current at its version stamp, or
    ``None`` when no child of it carries an ``id``.

    Built by one pass over the children and kept in ``_kid_maps``
    until the stamp moves (a mutator drops it then); an element without
    id-bearing children keeps nothing and is scanned again on each call.
    """
    index = element._kid_maps
    if index is not None and index.version == element._version:
        return index
    by_key = {}
    shared = False
    for child in element.children:
        identifier = child.attrib.get("id")
        if identifier is not None:
            key = (child.tag, identifier)
            if key in by_key:
                by_key[key] = None
                shared = True
            else:
                by_key[key] = child
    if not by_key:
        element._kid_maps = None
        return None
    if shared:
        index = ChildIndex(
            element._version,
            tuple(child for child in by_key.values() if child is not None),
            frozenset(key for key, child in by_key.items() if child is None))
    else:
        index = ChildIndex(element._version, tuple(by_key.values()), _NO_KEYS)
    element._kid_maps = index
    return index


def copy_subtree(node, drop=(), carry_memo=False):
    """A detached deep copy of *node* (an :class:`Element` or a
    ``text()`` match), without the attributes named in *drop*.

    The one subtree copier.  It builds the copy finished, as
    :meth:`Element.assemble` would, without its checks: the source
    passed them.  A childless element is stamped 0, and every other
    one higher than everything below it.  *carry_memo*: each copied
    element keeps its source's valid serialization memo entries,
    re-stamped, and an origin link that writes bytes memoized on the
    copy back to the source (:meth:`Element.store_serialization`);
    otherwise the copy has neither, and nothing done to it reaches the
    source.
    """
    if node.__class__ is Text:
        return Text(node.value)
    new = object.__new__
    root = new(Element)
    root.parent = None
    parents, pairs = [], []
    stack = [node, root]
    while stack:
        clone = stack.pop()
        source = stack.pop()
        clone.tag = source.tag
        attrib = source.attrib
        if attrib:
            attrib = attrib.copy()
            for name in drop:
                if name in attrib:
                    del attrib[name]
            clone.attrib = attrib or NO_ATTRS
        else:
            clone.attrib = NO_ATTRS
        clone.text = source.text
        clone._ser_cache = clone._kid_maps = clone._ser_origin = None
        kids = source.children
        if kids:
            children = []
            for child in kids:
                copy = new(Element)
                copy.parent = clone
                children.append(copy)
                stack.append(child)
                stack.append(copy)
            clone.children = children
            parents.append(clone)
        else:
            clone.children = NO_KIDS
            clone._version = 0
        if carry_memo:
            pairs.append((source, clone))
    # A parent comes before every parent below it, so in reverse each
    # is stamped after its descendants.
    clock = _VERSION_CLOCK
    for index in range(len(parents) - 1, -1, -1):
        parents[index]._version = next(clock)
    for source, clone in pairs:
        version, stamp = source._version, clone._version
        cache = source._ser_cache
        if cache:
            # Snapshot: a write-back from another thread may insert a
            # key mid-iteration.
            clone._ser_cache = {
                key: (stamp, text)
                for key, (source_stamp, text) in list(cache.items())
                if source_stamp == version} or None
        clone._ser_origin = (source, version, stamp)
    return root


def restamp(elements):
    """Stamp every element of *elements* with one fresh clock reading.

    For a tree its builder fills by direct ``attrib`` / ``children``
    edits instead of the mutators (the reply skeleton of
    ``repro.core.answer``).  The caller vouches that *elements* holds
    every element it edited and the ancestors of each, that every
    other node below them was finished before the call, and that
    nothing read the tree's stamps in between: each element is then
    stamped higher than everything below it outside the set, and
    anything memoized under an old stamp is invalid.
    """
    stamp = next(_VERSION_CLOCK)
    for element in elements:
        element._version = stamp


class Document:
    """A document node wrapping a single root element.

    XPath distinguishes the document node (matched by ``/``) from the
    root *element*; keeping the distinction explicit simplifies the
    evaluator.
    """

    __slots__ = ("root",)

    def __init__(self, root):
        if not isinstance(root, Element):
            raise XmlStructureError("document root must be an Element")
        self.root = root

    def copy(self):
        """Return a deep copy of the document."""
        return Document(self.root.copy())

    def __repr__(self):
        return f"<Document root={self.root.tag!r}>"
