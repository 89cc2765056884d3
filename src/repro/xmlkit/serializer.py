"""Serialization of the node model back to XML text.

Compact serialization is memoized per subtree: every element can cache
its serialized form together with the subtree version stamp it was
computed under (see :class:`~repro.xmlkit.nodes.Element`).  A later
``serialize`` call reuses the cached bytes for every subtree that has
not mutated since, so re-serializing a large document after a point
update only rebuilds the spine from the mutated node to the root.
The memo is semantically transparent: output is byte-identical with
and without it (``use_cache=False`` forces the uncached path, which
the property tests compare against).

A subtree that a tree lists without adopting it -- a payload lent to a
message envelope, a stored subtree lent to a reply's skeleton -- is
memoized at its own root only: its bytes are what a later message
reuses, and memos below it would only help after a change inside it,
at the cost of a string per node of every stored subtree ever sent.

An element's content is its child elements, then its escaped text; it
is written ``<tag/>`` only when it has neither (text ``None``).

A :class:`Stripped` view writes a subtree without some attributes, in
the same pass as the tree listing it (a user's results, lent from a
site database without their ``status``).
"""

from repro.xmlkit.nodes import Document

#: A raw ``\r`` in text, and a raw tab, newline or ``\r`` in an
#: attribute value, would come back from a parser as XML's end-of-line
#: and attribute-value normalization leave it; a reference does not.
_TEXT_TABLE = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})
_ATTR_TABLE = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
     "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
)

#: Reuse accounting for the serialization memo.  ``cache_hits`` counts
#: subtrees whose bytes were reused verbatim, ``cache_misses`` subtrees
#: that had to be (re)serialized.  Reset with
#: :func:`reset_serialization_stats`.
SERIALIZATION_STATS = {"cache_hits": 0, "cache_misses": 0}


def reset_serialization_stats():
    """Zero the serialization reuse counters (tests, benchmarks)."""
    for key in SERIALIZATION_STATS:
        SERIALIZATION_STATS[key] = 0


def serialization_stats():
    """A snapshot of the serialization reuse counters."""
    return dict(SERIALIZATION_STATS)


def escape_text(value):
    """Escape character data for element content."""
    return value.translate(_TEXT_TABLE)


def escape_attribute(value):
    """Escape character data for a double-quoted attribute value."""
    return value.translate(_ATTR_TABLE)


class Stripped:
    """*source*'s subtree as the serializer writes it without the
    attributes named in *drop* (a frozenset).

    It offers what the compact writer reads of an element, so a tree
    may list it among its children: the source is neither copied nor
    touched.  Listed so, it is lent, and its bytes are memoized on the
    source root under a key of their own, valid while the source's
    version stamp is; its descendants are views adopted by it, written
    without a memo.
    """

    __slots__ = ("source", "drop", "tag", "attrib", "text", "parent")

    def __init__(self, source, drop, parent=None):
        self.source = source
        self.drop = drop
        self.tag = source.tag
        self.attrib = {name: value for name, value in source.attrib.items()
                       if name not in drop}
        self.text = source.text
        self.parent = parent

    @property
    def children(self):
        return [Stripped(child, self.drop, self)
                for child in self.source.children]

    def cached_serialization(self, key):
        return self.source.cached_serialization((key, self.drop))

    def store_serialization(self, key, text):
        self.source.store_serialization((key, self.drop), text)


def _attributes_to_string(element, sort_attributes):
    names = element.attrib
    if sort_attributes:
        names = sorted(names)
    return "".join(
        f' {name}="{escape_attribute(element.attrib[name])}"' for name in names
    )


def _compact_string(node, sort_attributes, use_cache, here=True,
                    below=True):
    """*node*'s compact bytes; the memo is read and written at *node*
    when *here*, and at its adopted descendants when *below*.  A child
    the node lists without adopting it (a lent subtree: its parent is
    elsewhere) is memoized at its own root only."""
    memo = use_cache and here
    if memo:
        cached = node.cached_serialization(sort_attributes)
        if cached is not None:
            SERIALIZATION_STATS["cache_hits"] += 1
            return cached
        SERIALIZATION_STATS["cache_misses"] += 1
    open_tag = f"<{node.tag}{_attributes_to_string(node, sort_attributes)}"
    children, value = node.children, node.text
    if children:
        parts = [open_tag, ">"]
        for child in children:
            if child.parent is node:
                parts.append(_compact_string(child, sort_attributes,
                                             use_cache, below, below))
            else:
                parts.append(_compact_string(child, sort_attributes,
                                             use_cache, True, False))
        if value:
            parts.append(escape_text(value))
        parts.append(f"</{node.tag}>")
        text = "".join(parts)
    elif value is None:
        text = open_tag + "/>"
    else:
        text = f"{open_tag}>{escape_text(value)}</{node.tag}>"
    if memo:
        node.store_serialization(sort_attributes, text)
    return text


def _write_pretty(node, out, indent, level, sort_attributes):
    pad = indent * level
    open_tag = f"{pad}<{node.tag}{_attributes_to_string(node, sort_attributes)}"
    value = node.text
    if not node.children:
        body = "/>" if value is None else f">{escape_text(value)}</{node.tag}>"
        out.append(open_tag + body + "\n")
        return
    out.append(open_tag + ">\n")
    for child in node.children:
        _write_pretty(child, out, indent, level + 1, sort_attributes)
    if value is not None:
        out.append(f"{pad}{indent}{escape_text(value)}\n")
    out.append(f"{pad}</{node.tag}>\n")


def serialize(node, pretty=False, indent="  ", sort_attributes=False,
              use_cache=True):
    """Serialize an :class:`Element` or :class:`Document` to a string.

    With ``pretty=True`` the output is indented, one element per line.
    With ``sort_attributes=True`` attributes are emitted in sorted order,
    which gives deterministic output useful for hashing and testing.
    ``use_cache=False`` disables the per-subtree memo (compact mode
    only; pretty output is never cached because it depends on depth).
    """
    if isinstance(node, Document):
        node = node.root
    if pretty:
        out = []
        _write_pretty(node, out, indent, 0, sort_attributes)
        return "".join(out)
    return _compact_string(node, sort_attributes, use_cache)


def serialize_around(node):
    """*node*'s compact bytes, for a private tree serialized once and
    dropped (a message envelope): the memo is read and written only at
    the roots of the subtrees the tree lists without adopting them, its
    lent payloads, whose bytes a later message reuses."""
    return _compact_string(node, False, True, here=False, below=False)


def write_file(node, path, pretty=True):
    """Serialize *node* to the file at *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(serialize(node, pretty=pretty))
