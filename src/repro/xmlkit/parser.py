"""A hand-written, dependency-free XML parser.

Supports the subset of XML that sensor documents use: a prolog,
comments, CDATA sections, elements, attributes and character data with
the five predefined entities plus numeric character references.

As a convenience, attribute names may be written with a leading ``@``
(``<usRegion @id='NE'>``), matching the notation used in the paper's
figures; the ``@`` is stripped.

The parser is a tokenizer of compiled regular expressions (a name, one
whole attribute or the tag's end, a closing tag; text runs are found
with ``str.find``) driving an explicit stack of open elements, so the
work per character happens in C.  An attribute-less text leaf such as
``<available>yes</available>`` -- most of a wire message -- is read by
one expression whole.  Where a token does not match, the input at that
position is examined once more to say exactly what is wrong and where.

Each element is built finished (:meth:`Element.assemble`) when its
closing tag is read, around children that are finished already and its
text runs joined into one string: the tokenizer has checked every name,
nothing is appended one child at a time, and the subtree is stamped
once per element -- a parent higher than everything below it, a
childless element 0.  A leaf is built in one call, with an empty child
list and its text.
"""

import re

from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.nodes import Document, Element, is_valid_name

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_WS = r"[ \t\r\n]*"
#: What a name runs over; whether it is a *valid* name is checked after.
_NAME = r"[^=/> \t\r\n<'\"]"

_skip_whitespace = re.compile(_WS).match
_read_name = re.compile(f"{_NAME}*").match
#: Inside a start tag: its end (group 1: the ``/`` of ``/>``), or one
#: whole attribute (group 2: name; 3 or 4: the quoted value).
_read_tag_part = re.compile(
    f"{_WS}(?:(/?)>|({_NAME}+){_WS}={_WS}(?:\"([^\"]*)\"|'([^']*)'))").match
#: After ``</``: the name, then (group 2) the ``>`` if it is there.
_read_close = re.compile(f"({_NAME}*){_WS}(>?)").match
#: At a ``<``: a whole attribute-less leaf -- a valid name (group 1),
#: text with no markup and no reference (group 2), its closing tag.
_read_leaf = re.compile(
    r"<([A-Za-z_][A-Za-z0-9_.\-]*)>([^<&]*)</\1>").match


def _error(source, message, pos):
    """An :class:`XmlParseError` at *pos* (line and column 1-based)."""
    line = source.count("\n", 0, pos) + 1
    column = pos - source.rfind("\n", 0, pos)
    return XmlParseError(message, line, column)


def _after(source, terminator, pos):
    """The position just past the next *terminator*; error if absent."""
    end = source.find(terminator, pos)
    if end < 0:
        raise _error(source,
                     f"unterminated construct, expected {terminator!r}", pos)
    return end + len(terminator)


def _decode_entities(text, source, base_pos):
    """Expand entity and character references in *text*."""
    if "&" not in text:
        return text
    parts = []
    i = 0
    while True:
        amp = text.find("&", i)
        if amp < 0:
            parts.append(text[i:])
            break
        parts.append(text[i:amp])
        semi = text.find(";", amp + 1)
        if semi < 0:
            raise _error(source, "unterminated entity reference",
                         base_pos + amp)
        name = text[amp + 1:semi]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                parts.append(chr(int(name[2:], 16)))
            except ValueError:
                raise _error(source, f"bad character reference &{name};",
                             base_pos + amp) from None
        elif name.startswith("#"):
            try:
                parts.append(chr(int(name[1:])))
            except ValueError:
                raise _error(source, f"bad character reference &{name};",
                             base_pos + amp) from None
        elif name in _ENTITIES:
            parts.append(_ENTITIES[name])
        else:
            raise _error(source, f"unknown entity &{name};", base_pos + amp)
        i = semi + 1
    return "".join(parts)


def _attribute_name(source, raw, pos, attrib):
    """The attribute name spelled *raw* at *pos*, checked against the
    attributes read so far."""
    name = raw[1:] if raw.startswith("@") else raw  # <tag @id='x'>
    if not is_valid_name(name):
        raise _error(source, f"invalid attribute name {name!r}", pos)
    if name in attrib:
        raise _error(source, f"duplicate attribute {name!r}", pos)
    return name


def _start_tag_error(source, pos, attrib):
    """What is wrong at *pos*, where neither an attribute nor the end of
    the start tag could be read."""
    pos = _skip_whitespace(source, pos).end()
    if source[pos:pos + 1] in ("/", ""):
        return _error(source, "expected '>'", pos)
    name = _read_name(source, pos)
    if not name.group():
        return _error(source, "expected a name", pos)
    _attribute_name(source, name.group(), pos, attrib)
    pos = _skip_whitespace(source, name.end()).end()
    if source[pos:pos + 1] != "=":
        return _error(source, "expected '='", pos)
    pos = _skip_whitespace(source, pos + 1).end()
    quote = source[pos:pos + 1]
    if quote not in ("'", '"'):
        return _error(source, "attribute value must be quoted", pos)
    return _error(source, f"unterminated construct, expected {quote!r}",
                  pos + 1)


def _read_start_tag(source, pos):
    """The start tag whose "<" is at *pos*: ``(tag, attributes, end,
    empty)``, *empty* when it is an empty-element tag."""
    name = _read_name(source, pos + 1)
    tag = name.group()
    if not tag:
        raise _error(source, "expected a name", pos + 1)
    if not is_valid_name(tag):
        raise _error(source, f"invalid element name {tag!r}", pos + 1)
    pos = name.end()
    attrib = {}
    while True:
        part = _read_tag_part(source, pos)
        if part is None:
            raise _start_tag_error(source, pos, attrib)
        pos = part.end()
        quoted = part.lastindex
        if quoted == 1:
            return tag, attrib, pos, bool(part.group(1))
        name = _attribute_name(source, part.group(2), part.start(2), attrib)
        raw = part.group(quoted)
        if "<" in raw:
            raise _error(source, "'<' not allowed in attribute value",
                         part.start(quoted))
        attrib[name] = _decode_entities(raw, source, part.start(quoted))


def _skip_misc(source, pos):
    """Skip whitespace, comments, PIs and doctype between top-level items."""
    while True:
        pos = _skip_whitespace(source, pos).end()
        if source.startswith("<!--", pos):
            pos = _after(source, "-->", pos + 4)
        elif source.startswith("<?", pos):
            pos = _after(source, "?>", pos + 2)
        elif source.startswith("<!DOCTYPE", pos):
            # Naive doctype skip: no internal subset support.
            pos = _after(source, ">", pos)
        else:
            return pos


def parse_fragment(source):
    """Parse *source* and return the root :class:`Element`.

    Leading/trailing whitespace, a prolog and comments are allowed
    around the single top-level element.  Surrounding whitespace inside
    text content is stripped (sensor documents are data-centric).
    """
    pos = _skip_misc(source, 0)
    if source[pos:pos + 1] != "<":
        raise _error(source, "expected start of an element", pos)
    find = source.find
    startswith = source.startswith
    assemble = Element.assemble
    #: The open elements, innermost last: ``(tag, attributes, position
    #: of its "<", text parts, finished children)``.  An element is
    #: built when it closes, and joins its parent's children then.
    stack = []
    while True:
        # -- a start tag: *pos* is at its "<" ---------------------------
        leaf = _read_leaf(source, pos)
        if leaf is not None:
            tag, text = leaf.groups()
            closed = assemble(tag, {}, [], text.strip() or None)
            pos = leaf.end()
        else:
            opened_at = pos
            tag, attrib, pos, empty = _read_start_tag(source, pos)
            if empty:
                closed = assemble(tag, attrib, [])
            else:
                stack.append((tag, attrib, opened_at, [], []))
                closed = None
        # -- content, up to the next start tag --------------------------
        while True:
            if closed is not None:
                if not stack:
                    pos = _skip_misc(source, pos)
                    if pos < len(source):
                        raise _error(
                            source,
                            "unexpected content after the root element", pos)
                    return closed
                stack[-1][4].append(closed)
                closed = None
            tag, attrib, opened_at, text_parts, children = stack[-1]
            less_than = find("<", pos)
            if less_than < 0:
                raise _error(source, f"unclosed element <{tag}>",
                             opened_at)
            if less_than > pos:
                text_parts.append(
                    _decode_entities(source[pos:less_than], source, pos))
            marker = source[less_than + 1:less_than + 2]
            if marker == "/":
                close = _read_close(source, less_than + 2)
                if not close.group(1):
                    raise _error(source, "expected a name", less_than + 2)
                if close.group(1) != tag:
                    raise _error(
                        source,
                        f"mismatched closing tag </{close.group(1)}>, "
                        f"expected </{tag}>", less_than + 2)
                pos = close.end()
                if not close.group(2):
                    raise _error(source, "expected '>'", pos)
                stack.pop()
                closed = assemble(tag, attrib, children,
                                  "".join(text_parts).strip() or None)
            elif marker == "?":
                pos = _after(source, "?>", less_than + 2)
            elif startswith("<!--", less_than):
                pos = _after(source, "-->", less_than + 4)
            elif startswith("<![CDATA[", less_than):
                pos = _after(source, "]]>", less_than + 9)
                text_parts.append(source[less_than + 9:pos - 3])
            else:
                pos = less_than
                break


def parse_document(source):
    """Parse *source* and return a :class:`Document`."""
    return Document(parse_fragment(source))


def parse_file(path):
    """Parse the XML file at *path* and return a :class:`Document`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())
