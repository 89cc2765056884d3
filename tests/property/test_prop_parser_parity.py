"""Differential property: the XML parser against the seed's parser.

The seed's recursive-descent parser -- one Python iteration per
character -- is kept here, verbatim, as the oracle for what every input
means.  The parser in ``repro.xmlkit`` is expat's: where both build a
tree, the two trees serialize equal; where both refuse, both raise
``XmlParseError`` at a 1-based line and column inside the text (the
wording is expat's, and differs between expat versions, so it is not
compared).  Where they disagree, the cause must be one of the known
differences between the seed's tokenizer and XML 1.0: :func:`_divergence`
names the classes whose repairs end the disagreement, and any other
disagreement fails.
"""

import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.xmlkit import parser as expat_builder
from repro.xmlkit import serialize
from repro.xmlkit.errors import XmlParseError, XmlStructureError
from repro.xmlkit.nodes import (
    FORBIDDEN_CHARACTER,
    Element,
    Text,
    is_valid_name,
)


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
        return ("error", exc.line, exc.column)


def _seed_outcome(text):
    """The seed's outcome.  It builds through today's node model, which
    refuses a character XML 1.0 forbids with ``XmlStructureError``, at
    no place in the text: a refusal that is not a parse error.  A
    reference past ``chr``'s C ``int`` escapes the seed as
    ``OverflowError``: a parse error it places nowhere."""
    try:
        return _outcome(seed_parse_fragment, text)
    except XmlStructureError:
        return ("refused",)
    except OverflowError:
        return ("error", None, None)


def _agree(text, parse):
    seed = _seed_outcome(text)
    ours = _outcome(parse, text)
    return seed == ours or seed[0] == ours[0] == "error"


def _inside(text, line, column):
    """Whether 1-based *line* and *column* place a character of *text*,
    or the end of a line, under either parser's idea of a line: the
    seed ends one at ``\n`` only, expat at ``\r`` too."""
    return any(
        1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1
        for lines in (text.split("\n"), re.split("\r\n?|\n", text)))


# Each class of divergence comes with a repair: a rewrite of the
# constructs of that class, and of nothing else, into text both parsers
# read alike.  A divergence belongs to the classes whose repairs, and no
# fewer, make the parsers agree, so a construct that merely appears in
# the text -- a well-formed comment, a CDATA section -- exempts no
# disagreement it did not cause.

#: In document order: a CDATA section (whole: what looks like markup
#: inside it is text), a comment, PI or DOCTYPE as the seed skipped it
#: -- to its first terminator --, a ``]]>`` in character data, and any
#: other ``<`` that opens a tag.
_MARKUP = re.compile(
    r"(<!\[CDATA\[.*?\]\]>)|(<!--.*?-->|<\?.*?\?>|<!DOCTYPE[^>]*>)"
    r"|(\]\]>)|(<(?![!?]))", re.S)
#: XML's white space (the seed's too), and an approximation of its names.
_S = "[ \t\r\n]"
_NAME = r"[^\W\d][\w.:-]*"
_LITERAL = r"""(?:"[^"]*"|'[^']*')"""
#: XML 1.0's comment, PI (its target not ``xml``), XML declaration and
#: DOCTYPE without an internal subset.
_COMMENT = re.compile(r"<!--(?:[^-]|-[^-])*-->", re.S)
_PI = re.compile(
    rf"<\?(?![xX][mM][lL](?![\w.:-])){_NAME}(?:{_S}.*)?\?>", re.S)
_DECLARATION = re.compile(
    rf"""<\?xml{_S}+version{_S}*={_S}*(["'])1\.[0-9]+\1"""
    rf"""(?:{_S}+encoding{_S}*={_S}*(["'])[A-Za-z][\w.-]*\2)?"""
    rf"""(?:{_S}+standalone{_S}*={_S}*(["'])(?:yes|no)\3)?{_S}*\?>""")
_DOCTYPE = re.compile(
    rf"<!DOCTYPE{_S}+{_NAME}"
    rf"(?:{_S}+(?:SYSTEM|PUBLIC{_S}+{_LITERAL}){_S}+{_LITERAL})?{_S}*>")
#: A start tag up to its ``>``, or to where it breaks off.
_START_TAG = re.compile(r"""<[^ \t\r\n<>!?/](?:'[^'<]*'|"[^"<]*"|[^<>'"])*""")
_ATTRIBUTE_VALUE = re.compile(rf"""(={_S}*)('[^'<]*'|"[^"<]*")""")
_REFERENCE = re.compile(r"&#([^;&<]*);")


def _in_start_tags(text, rewrite):
    return _START_TAG.sub(lambda m: rewrite(m.group()), text)


def _seed_code(match):
    """The code point the seed read from a character reference, or
    ``None`` where the seed refused it."""
    body = match.group(1)
    try:
        if body[:1] in ("x", "X"):
            code = int(body[1:], 16)
        else:
            code = int(body)
    except ValueError:
        return None
    return code if 0 <= code <= 0x10FFFF else None


def _without_at_names(text):
    """(a): an attribute ``@name=`` written ``name=``."""
    return _in_start_tags(text, lambda tag: re.sub(
        rf"""(?<=[ \t\r\n'"])@(?=[^ \t\r\n=/>'"<]+{_S}*=)""", "", tag))


def _without_forbidden_characters(text):
    """(b): every character XML 1.0 forbids dropped, raw or referred to."""
    def keep(match):
        code = _seed_code(match)
        forbidden = code is not None and FORBIDDEN_CHARACTER.match(chr(code))
        return "" if forbidden else match.group()
    return _REFERENCE.sub(keep, FORBIDDEN_CHARACTER.sub("", text))


def _without_malformed_markup(text):
    """(c): every comment, PI, XML declaration or DOCTYPE the seed
    skipped that XML 1.0 refuses where it stands dropped; a well-formed
    one is kept."""
    parts, opened, doctypes = [], False, 0
    for match in _MARKUP.finditer(text):
        opened = opened or match.group(4) is not None
        construct = match.group(2)
        if construct is None:
            continue
        if construct.startswith("<!--"):
            good = _COMMENT.fullmatch(construct)
        elif construct.startswith("<!"):
            doctypes += 1
            good = (not opened and doctypes == 1
                    and _DOCTYPE.fullmatch(construct))
        elif match.start() == 0 and _DECLARATION.fullmatch(construct):
            good = True
        else:
            good = _PI.fullmatch(construct)
        if not good:
            parts.append(match.span())
    for start, stop in reversed(parts):
        text = text[:start] + text[stop:]
    return text


def _normalized(text):
    """(d): ends of lines, and whitespace in attribute values, as XML
    normalizes them."""
    return _in_start_tags(
        re.sub("\r\n?", "\n", text),
        lambda tag: _ATTRIBUTE_VALUE.sub(
            lambda m: m.group(1) + re.sub("[\t\n]", " ", m.group(2)), tag))


def _strict_markup(text):
    """(e): markup the seed read loosely written as XML requires -- a
    character reference only Python's ``int`` reads as the number the
    seed took, a space between two attributes, and ``]]>`` in
    character data as ``]]&gt;``."""
    def reference(match):
        code = _seed_code(match)
        strict = re.fullmatch(r"x[0-9a-fA-F]+|[0-9]+", match.group(1))
        return match.group() if code is None or strict else f"&#{code};"
    text = _REFERENCE.sub(reference, text)
    text = _in_start_tags(text, lambda tag: re.sub(
        rf"""(={_S}*(?:'[^'<]*'|"[^"<]*"))(?=[^ \t\r\n/>])""", r"\1 ",
        tag))
    return _MARKUP.sub(
        lambda m: "]]&gt;" if m.group(3) else m.group(), text)


_REPAIRS = (
    ("a", _without_at_names),
    ("b", _without_forbidden_characters),
    ("c", _without_malformed_markup),
    ("d", _normalized),
    ("e", _strict_markup),
)


def _divergence(text, parse=expat_builder.parse_fragment):
    """The classes of the known differences between the seed's parser
    and XML 1.0 that make the two disagree on *text*, ``"+"``-joined,
    or ``None`` when no repair ends the disagreement:

    (a) an attribute name written ``@name``, the paper figures' notation;
    (b) a character XML 1.0 forbids, raw or as a reference;
    (c) a malformed XML declaration, PI, comment or DOCTYPE, which the
        seed skipped to its first terminator;
    (d) a ``\r``, or whitespace in an attribute value, which XML
        normalizes;
    (e) markup the seed read loosely where XML is strict: a character
        reference only Python's ``int`` reads (whitespace inside, an
        upper-case ``X``), two attributes with no whitespace between
        them, or ``]]>`` in character data.
    """
    for size in range(1, len(_REPAIRS) + 1):
        for chosen in itertools.combinations(_REPAIRS, size):
            repaired = text
            for _, repair in chosen:
                repaired = repair(repaired)
            if repaired != text and _agree(repaired, parse):
                return "+".join(kind for kind, _ in chosen)
    return None


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
    "<?xml version='1.0'?>\n<!-- c -->\n<!DOCTYPE a>\n<a id='NE'>\n"
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
    @example("<a @id='NE'/>")
    @example("<a>&#1;</a>")
    @example("<a><!-- x -- y --></a>")
    @example("<a x='1\t2'>\r</a>")
    @example("<a><!-- c --><![CDATA[x]]>&# 65;</a>")
    @example("<?xml version='1.0'?><!-- c --><a x='1'y='2'/>")
    @example("<a>&#11111111111;</a>")
    @example("<a \u00e9='1'/>")
    def test_same_tree_or_both_refuse_inside_the_text(self, text):
        seed = _seed_outcome(text)
        ours = _outcome(expat_builder.parse_fragment, text)
        if seed == ours or seed[0] == ours[0] == "error":
            for outcome in (seed, ours):
                if outcome[0] == "error" and outcome[1:] != (None, None):
                    assert _inside(text, *outcome[1:]), outcome
            return
        assert _divergence(text) is not None, (seed, ours)

    @pytest.mark.parametrize("text, kind", [
        ("<a @id='NE'/>", "a"),
        ("<a>\x01</a>", "b"),
        ("<a x='&#x1;'/>", "b"),
        ("<a><!-- c --><![CDATA[x]]>\x01</a>", "b"),
        ("<??><a/>", "c"),
        ("<a/><!DOCTYPE a>", "c"),
        ("<a><!-- x -- y --></a>", "c"),
        ("<!DOCTYPE a SYSTEM 'b>c'><a/>", "c"),
        ("<a>\r</a>", None),
        ("<a>x\ry</a>", "d"),
        ("<a x='\t'/>", "d"),
        ("<a>&# 65;</a>", "e"),
        ("<a>&#X41;</a>", "e"),
        ("<a x='1'y='2'/>", "e"),
        ("<?xml version='1.0'?><!-- c --><a x='1'y='2'/>", "e"),
        ("<a>]]></a>", "e"),
        ("<a><![CDATA[x]]>]]></a>", "e"),
        ("<a @id='1'>\x01</a>", "a+b"),
    ])
    def test_each_divergence_is_named_by_its_cause(self, text, kind):
        seed = _seed_outcome(text)
        ours = _outcome(expat_builder.parse_fragment, text)
        if kind is None:
            assert seed == ours
        else:
            assert seed != ours
            assert _divergence(text) == kind

    @pytest.mark.parametrize("mistake, text", [
        ("refuses <b>", _DOCUMENTS[0]),
        ("refuses <b>", _DOCUMENTS[1]),
        ("refuses a comment", _DOCUMENTS[0]),
        ("refuses a comment", _DOCUMENTS[1]),
        ("refuses a declaration", _DOCUMENTS[1]),
        ("refuses a DOCTYPE", _DOCUMENTS[1]),
        ("accepts anything", _DOCUMENTS[0].replace("</b>", "</c>")),
        ("accepts anything", _DOCUMENTS[1].replace("</b>", "</c>", 1)),
        ("drops CDATA", _DOCUMENTS[0]),
        ("spaces a tab in text", "<a x='\t'>p\tq\r</a>"),
    ])
    def test_well_formed_markup_exempts_no_divergence(self, mistake, text):
        """The texts hold a well-formed comment, CDATA section, XML
        declaration or DOCTYPE, or what XML normalizes: a builder that
        goes wrong on one of them, or anywhere else, is still caught."""
        refused = {"refuses a comment": "<!--",
                   "refuses a declaration": "<?xml",
                   "refuses a DOCTYPE": "<!DOCTYPE"}

        def broken(text):
            if mistake in refused and refused[mistake] in text:
                raise XmlParseError("refused", 1, 1)
            if mistake == "drops CDATA":
                text = re.sub(r"<!\[CDATA\[.*?\]\]>", "", text)
            if mistake == "spaces a tab in text":
                text = text.replace(">p\t", ">p ")
            try:
                root = expat_builder.parse_fragment(text)
            except XmlParseError:
                if mistake == "accepts anything":
                    return Element("a")
                raise
            if mistake == "refuses <b>" and any(
                    node.tag == "b" for node in root.iter()):
                raise XmlParseError("refused", 1, 1)
            return root

        assert not _agree(text, broken)
        assert _divergence(text, broken) is None

    def test_the_documents_the_damage_starts_from_are_well_formed(self):
        for text in _DOCUMENTS:
            assert _outcome(expat_builder.parse_fragment, text)[0] == "tree"

    def test_depth_is_bounded_by_memory_not_the_call_stack(self):
        depth = 5000  # the seed's recursive descent overflows near 300
        root = expat_builder.parse_fragment("<a>" * depth + "</a>" * depth)
        assert sum(1 for _ in root.iter()) == depth
