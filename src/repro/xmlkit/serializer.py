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

An element's content is its child elements, then its escaped text; it
is written ``<tag/>`` only when it has neither (text ``None``).
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


def _attributes_to_string(element, sort_attributes):
    names = element.attrib
    if sort_attributes:
        names = sorted(names)
    return "".join(
        f' {name}="{escape_attribute(element.attrib[name])}"' for name in names
    )


def _compact_string(node, sort_attributes, use_cache):
    if use_cache:
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
            parts.append(_compact_string(child, sort_attributes, use_cache))
        if value:
            parts.append(escape_text(value))
        parts.append(f"</{node.tag}>")
        text = "".join(parts)
    elif value is None:
        text = open_tag + "/>"
    else:
        text = f"{open_tag}>{escape_text(value)}</{node.tag}>"
    if use_cache:
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


def write_file(node, path, pretty=True):
    """Serialize *node* to the file at *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(serialize(node, pretty=pretty))
