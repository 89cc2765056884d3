"""Differential property: the XML parser against the seed's parser.

PR 17 replaced the character-at-a-time ``_Scanner`` loops with a
tokenizer of compiled regular expressions driving an explicit stack.
The seed's recursive-descent parser -- one Python iteration per
character, but the definition of what every input means -- is kept
here, verbatim, as the oracle: for any text, well-formed or not, both
must build the same tree or raise ``XmlParseError`` with the same
message at the same line and column.
"""

from hypothesis import example, given, settings, strategies as st

from repro.xmlkit import parser as tokenizer
from repro.xmlkit import serialize
from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.nodes import Element, Text, is_valid_name


# ----------------------------------------------------------------------
# The oracle: ``repro/xmlkit/parser.py`` as of the commit before PR 17,
# verbatim from ``_ENTITIES`` to the end of ``parse_fragment``.  Not a
# second code path: nothing under ``src/`` imports it.
# ----------------------------------------------------------------------
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_WHITESPACE = " \t\r\n"


class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.length = len(source)

    def location(self, pos=None):
        """Return (line, column), both 1-based, for *pos* (default: current)."""
        if pos is None:
            pos = self.pos
        line = self.source.count("\n", 0, pos) + 1
        last_newline = self.source.rfind("\n", 0, pos)
        column = pos - last_newline
        return line, column

    def error(self, message, pos=None):
        line, column = self.location(pos)
        return XmlParseError(message, line, column)

    def at_end(self):
        return self.pos >= self.length

    def peek(self):
        if self.pos >= self.length:
            return ""
        return self.source[self.pos]

    def advance(self):
        ch = self.source[self.pos]
        self.pos += 1
        return ch

    def startswith(self, prefix):
        return self.source.startswith(prefix, self.pos)

    def consume(self, literal):
        if not self.source.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def skip_whitespace(self):
        while self.pos < self.length and self.source[self.pos] in _WHITESPACE:
            self.pos += 1

    def read_until(self, terminator):
        """Read up to (not including) *terminator*; error if absent."""
        end = self.source.find(terminator, self.pos)
        if end < 0:
            raise self.error(f"unterminated construct, expected {terminator!r}")
        chunk = self.source[self.pos:end]
        self.pos = end + len(terminator)
        return chunk

    def read_name(self):
        start = self.pos
        while self.pos < self.length and self.source[self.pos] not in "=/> \t\r\n<'\"":
            self.pos += 1
        name = self.source[start:self.pos]
        if not name:
            raise self.error("expected a name", start)
        return name


def _decode_entities(text, scanner, base_pos):
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
            raise scanner.error("unterminated entity reference", base_pos + amp)
        name = text[amp + 1:semi]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                parts.append(chr(int(name[2:], 16)))
            except ValueError:
                raise scanner.error(f"bad character reference &{name};", base_pos + amp) from None
        elif name.startswith("#"):
            try:
                parts.append(chr(int(name[1:])))
            except ValueError:
                raise scanner.error(f"bad character reference &{name};", base_pos + amp) from None
        elif name in _ENTITIES:
            parts.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};", base_pos + amp)
        i = semi + 1
    return "".join(parts)


def _parse_attributes(scanner):
    """Parse attributes up to the ``>`` or ``/>`` of a start tag."""
    attrib = {}
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/") or ch == "":
            return attrib
        name_pos = scanner.pos
        name = scanner.read_name()
        if name.startswith("@"):
            name = name[1:]  # paper-figure notation: <tag @id='x'>
        if not is_valid_name(name):
            raise scanner.error(f"invalid attribute name {name!r}", name_pos)
        if name in attrib:
            raise scanner.error(f"duplicate attribute {name!r}", name_pos)
        scanner.skip_whitespace()
        scanner.consume("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        value_pos = scanner.pos
        raw = scanner.read_until(quote)
        if "<" in raw:
            raise scanner.error("'<' not allowed in attribute value", value_pos)
        attrib[name] = _decode_entities(raw, scanner, value_pos)


def _skip_misc(scanner):
    """Skip whitespace, comments, PIs and doctype between top-level items."""
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("<!--"):
            scanner.pos += 4
            scanner.read_until("-->")
        elif scanner.startswith("<?"):
            scanner.pos += 2
            scanner.read_until("?>")
        elif scanner.startswith("<!DOCTYPE"):
            # Naive doctype skip: no internal subset support.
            scanner.read_until(">")
        else:
            return


def _parse_element(scanner):
    """Parse one element (the scanner must be positioned at its ``<``)."""
    start_pos = scanner.pos
    scanner.consume("<")
    name_pos = scanner.pos
    tag = scanner.read_name()
    if not is_valid_name(tag):
        raise scanner.error(f"invalid element name {tag!r}", name_pos)
    attrib = _parse_attributes(scanner)
    element = Element(tag, attrib=attrib)
    if scanner.startswith("/>"):
        scanner.pos += 2
        return element
    scanner.consume(">")

    text_start = scanner.pos
    text_parts = []

    def flush_text():
        if scanner.pos > text_start:
            raw = scanner.source[text_start:scanner.pos]
            text_parts.append(_decode_entities(raw, scanner, text_start))

    while True:
        if scanner.at_end():
            raise scanner.error(f"unclosed element <{tag}>", start_pos)
        ch = scanner.peek()
        if ch == "<":
            flush_text()
            if scanner.startswith("</"):
                scanner.pos += 2
                close_pos = scanner.pos
                close_tag = scanner.read_name()
                if close_tag != tag:
                    raise scanner.error(
                        f"mismatched closing tag </{close_tag}>, expected </{tag}>",
                        close_pos,
                    )
                scanner.skip_whitespace()
                scanner.consume(">")
                break
            if scanner.startswith("<!--"):
                scanner.pos += 4
                scanner.read_until("-->")
            elif scanner.startswith("<![CDATA["):
                scanner.pos += 9
                text_parts.append(scanner.read_until("]]>"))
            elif scanner.startswith("<?"):
                scanner.pos += 2
                scanner.read_until("?>")
            else:
                element.append(_parse_element(scanner))
            text_start = scanner.pos
        else:
            scanner.pos += 1

    text = "".join(text_parts)
    if text.strip():
        element.append(Text(text.strip()))
    return element


def parse_fragment(source):
    """Parse *source* and return the root :class:`Element`.

    Leading/trailing whitespace, a prolog and comments are allowed
    around the single top-level element.  Surrounding whitespace inside
    text content is stripped (sensor documents are data-centric).
    """
    scanner = _Scanner(source)
    _skip_misc(scanner)
    if scanner.peek() != "<":
        raise scanner.error("expected start of an element")
    element = _parse_element(scanner)
    _skip_misc(scanner)
    if not scanner.at_end():
        raise scanner.error("unexpected content after the root element")
    return element


seed_parse_fragment = parse_fragment


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
def _outcome(parse, text):
    try:
        return ("tree", serialize(parse(text), use_cache=False))
    except XmlParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


#: Everything the grammar reacts to, whole constructs and their halves,
#: so random sequences are mostly *nearly* well-formed.
_PIECES = st.sampled_from([
    "<", ">", "/", "=", "'", '"', " ", "\n", "\t", "\r", "a", "b", "@",
    "&", ";", "#", "x", "1", "!", "-", "[", "]", "?", "\u00e9", "\u2003",
    "<a>", "</a>", "<b x='1'>", '<b y="2">', "</b>", "<a/>", "<a />",
    "id", "@id='NE'", "&amp;", "&lt;", "&#65;", "&#x41;", "&#xZ;", "&nope;",
    "<!--", "-->", "<![CDATA[", "]]>", "<?", "?>", "<!DOCTYPE",
])
_SOUP = st.lists(_PIECES, max_size=14).map("".join)

_DOCUMENTS = [
    "<a x='1' y=\"2\"><b>t&amp;x</b><c/><!-- c --><![CDATA[<z>]]>tail</a>",
    "<?xml version='1.0'?>\n<!-- c -->\n<!DOCTYPE a>\n<a @id='NE'>\n"
    " <b>1</b>\n <b>2</b>\n</a>\n<!-- end -->",
    "<a><b><c><d x='&lt;'>&#65;&#x42;</d></c></b> text </a>",
    "<message kind=\"answer\" id=\"42\"><fragment><usRegion id=\"NE\" "
    "status=\"id-complete\"><state id=\"PA\" timestamp=\"12.5\">"
    "<population>12</population></state></usRegion></fragment></message>",
]


@st.composite
def _damaged_documents(draw):
    """A well-formed document with a few spans cut, replaced or
    interrupted by a piece of the grammar."""
    text = draw(st.sampled_from(_DOCUMENTS))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        stop = min(len(text), start + draw(st.integers(0, 3)))
        text = text[:start] + draw(st.one_of(st.just(""), _PIECES)) \
            + text[stop:]
    return text


class TestParserParity:
    @given(st.one_of(_SOUP, _damaged_documents()))
    @settings(max_examples=1500, deadline=None)
    @example("<a x='1' x='2'/>")
    @example("<a 1x='1'/>")
    @example("<a x=1/>")
    @example("<a x='<'/>")
    @example("<a x='1/>")
    @example("<a / >")
    @example("<a><b></a>")
    @example("<a>&#xZ;</a>")
    @example("<a>&amp</a>")
    @example("<a/><b/>")
    @example("<a>\n<b>\n</c>")
    @example("<!-- <a/>")
    @example("<a><![CDATA[x</a>")
    def test_same_tree_or_same_error_at_the_same_position(self, text):
        assert _outcome(tokenizer.parse_fragment, text) == \
            _outcome(seed_parse_fragment, text)

    def test_the_documents_the_damage_starts_from_are_well_formed(self):
        for text in _DOCUMENTS:
            assert _outcome(tokenizer.parse_fragment, text)[0] == "tree"

    def test_depth_is_bounded_by_memory_not_the_call_stack(self):
        depth = 5000  # the seed's recursive descent overflows near 300
        root = tokenizer.parse_fragment("<a>" * depth + "</a>" * depth)
        assert sum(1 for _ in root.iter()) == depth
