"""The XML node model used throughout the reproduction.

The model is deliberately small and data-centric, matching the paper's
use of XML: elements with string attributes, element children and
character data.  There are no namespaces, processing instructions or
mixed-content subtleties -- sensor documents are trees of elements whose
leaves carry values (e.g. ``<available>yes</available>``).

Documents are treated as *unordered*: sibling order carries no meaning
(Section 3.1 of the paper).  The in-memory representation necessarily
keeps children in a list, but all comparison and caching logic in the
rest of the system is order-insensitive.
"""

import functools
import itertools

from repro.xmlkit.errors import XmlStructureError

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789-.")

#: Global monotone clock for subtree version stamps.  Every mutation of
#: an element (attributes, text, children) stamps the element and all
#: its ancestors with a fresh reading, so ``subtree_version`` changes
#: iff anything inside the subtree changed.  Consumers (the id-path
#: index in :mod:`repro.core.database`, the serialization memo in
#: :mod:`repro.xmlkit.serializer`, the per-element child maps below)
#: compare stamps instead of hashing content.
_VERSION_CLOCK = itertools.count(1)

_ABSENT = object()

#: Bound of the name-check memo.  A deployment uses a few dozen element
#: and attribute names, and every ``Element()`` / ``set()`` -- hence
#: every ``copy()`` and ID stub -- checks one.
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


class Text:
    """A character-data node.

    ``Text`` nodes appear as children of :class:`Element` and carry the
    element's value (e.g. the ``yes`` in ``<available>yes</available>``).
    """

    __slots__ = ("value", "parent")

    def __init__(self, value):
        self.value = str(value)
        self.parent = None

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
    """An XML element: a tag, a dict of attributes and child nodes.

    Children are :class:`Element` or :class:`Text` instances.  Parent
    pointers are maintained automatically by the mutation methods
    (:meth:`append`, :meth:`remove`, ...), which is what allows the
    XPath engine to support the ``parent`` and ``ancestor`` axes.
    """

    __slots__ = ("tag", "attrib", "children", "parent",
                 "_version", "_ser_cache", "_kid_maps", "_ser_origin")

    def __init__(self, tag, attrib=None, children=(), text=None):
        if not is_valid_name(tag):
            raise XmlStructureError(f"invalid element name: {tag!r}")
        self.tag = tag
        self.attrib = dict(attrib) if attrib else {}
        for name in self.attrib:
            if not is_valid_name(name):
                raise XmlStructureError(f"invalid attribute name: {name!r}")
        self.children = []
        self.parent = None
        self._version = 0
        self._ser_cache = None
        self._kid_maps = None
        self._ser_origin = None
        for child in children:
            self.append(child)
        if text is not None:
            self.append(Text(text))

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
        stamp = next(_VERSION_CLOCK)
        node = self
        while node is not None:
            node._version = stamp
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
        value = str(value)
        if self.attrib.get(name, _ABSENT) != value:
            self.attrib[name] = value
            self._touch()

    def delete_attribute(self, name):
        """Remove attribute *name*; a no-op if it is absent."""
        if self.attrib.pop(name, _ABSENT) is not _ABSENT:
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
        """Attach *node* (an :class:`Element` or :class:`Text`) as a child."""
        if not isinstance(node, (Element, Text)):
            raise XmlStructureError(f"cannot append {type(node).__name__} to an element")
        if node.parent is not None:
            raise XmlStructureError("node already has a parent; detach it first")
        node.parent = self
        self.children.append(node)
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
        except ValueError:
            raise XmlStructureError("node is not a child of this element") from None
        node.parent = None
        self._touch()

    def detach(self):
        """Detach this element from its parent (no-op if already detached)."""
        if self.parent is not None:
            self.parent.remove(self)
        return self

    def clear_children(self):
        """Remove all children (both elements and text)."""
        if not self.children:
            return
        for child in self.children:
            child.parent = None
        self.children = []
        self._touch()

    def set_text(self, value):
        """Replace all text children with a single text node.

        Element children are preserved.  Passing ``None`` removes all
        character data.
        """
        kept = [c for c in self.children if isinstance(c, Element)]
        if len(kept) != len(self.children):
            for child in self.children:
                if isinstance(child, Text):
                    child.parent = None
            self.children = kept
            self._touch()
        if value is not None:
            self.append(Text(value))

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    @property
    def text(self):
        """Concatenated character data directly under this element.

        Returns ``None`` if the element has no text children at all,
        which distinguishes ``<a/>`` from ``<a></a>`` containing an
        empty text node.
        """
        parts = [c.value for c in self.children if isinstance(c, Text)]
        if not parts:
            return None
        return "".join(parts)

    def string_value(self):
        """The XPath string-value: all descendant text, concatenated."""
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            for child in reversed(node.children):
                if isinstance(child, Text):
                    parts.append(child.value)
                else:
                    stack.append(child)
        # The stack-based walk above visits children right-to-left via
        # reversed(), so parts come out in document order already.
        return "".join(parts)

    def element_children(self, tag=None):
        """Iterate over child elements, optionally filtered by *tag*."""
        for child in self.children:
            if isinstance(child, Element) and (tag is None or child.tag == tag):
                yield child

    def child(self, tag, id=None):
        """Return the first child element with *tag* (and *id*), or ``None``.

        Lookups go through a lazily built per-element map from ``tag``
        (and ``(tag, id)``) to the first matching child, invalidated by
        the subtree version stamp, so resolving one hop of an ID path
        is a hash lookup instead of a linear sibling scan.
        """
        maps = self._kid_maps
        if maps is None or maps[0] != self._version:
            first_by_tag = {}
            by_key = {}
            for node in self.children:
                if isinstance(node, Element):
                    first_by_tag.setdefault(node.tag, node)
                    by_key.setdefault((node.tag, node.attrib.get("id")), node)
            maps = (self._version, first_by_tag, by_key)
            self._kid_maps = maps
        if id is None:
            return maps[1].get(tag)
        return maps[2].get((tag, id))

    def iter(self, tag=None):
        """Depth-first iterator over this element and its descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            if tag is None or node.tag == tag:
                yield node
            stack.extend(
                child for child in reversed(node.children) if isinstance(child, Element)
            )

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
        the origin too: the wire paths serialize short-lived copies of
        long-lived database content, and the write-back is what lets
        the *next* answer built from the same content reuse the bytes.
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
        the clone too.  This is what lets an answer fragment (built by
        copying database content, then serialized in place inside its
        message envelope) reuse clean subtrees' bytes.
        """
        clone = Element(self.tag, attrib=self.attrib)
        for child in self.children:
            clone.append(child.copy())
        cache = self._ser_cache
        if cache:
            version = self._version
            # Snapshot: a write-back from another thread may insert a
            # key mid-iteration.
            for key, (stamp, text) in list(cache.items()):
                if stamp == version:
                    clone.store_serialization(key, text)
        clone._ser_origin = (self, self._version, clone._version)
        return clone

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
