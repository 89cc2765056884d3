"""The XML parser: a tree builder driven by the standard library's expat.

:mod:`xml.parsers.expat` reads the text in C and calls back once per
start tag, end tag and text run (``buffer_text`` joins adjacent runs,
CDATA included).  The callbacks build the node model:

* each element is built finished (:meth:`Element.assemble`) when it
  closes, around children that are finished already and its text runs
  joined into one string, stripped, ``None`` when empty: nothing is
  appended one child at a time, and the subtree is stamped once per
  element -- a parent higher than everything below it, a childless
  element 0;
* comments, processing instructions and a bare DOCTYPE are dropped;
* every element and attribute name must pass :func:`is_valid_name`,
  which is narrower than XML's name rule.

Expat applies XML's end-of-line and attribute-value normalization and
refuses every character XML 1.0 forbids, raw or as a reference; the
serializer escapes what normalization would change, so
``parse_fragment(serialize(tree))`` rebuilds *tree*.  Nothing outside
the text is ever read: a DOCTYPE with an internal subset, an entity
declaration and a reference to an undeclared (external) entity are
refused, so no entity expands and no default attribute is injected.

Every failure -- expat's or a callback's -- raises
:class:`XmlParseError` at a 1-based line and column.  The callbacks
close over the builder's own state, never over the expat parser: a
callback -> parser reference cycle would leave each parse's tree to the
cycle collector.
"""

from xml.parsers.expat import (
    XML_PARAM_ENTITY_PARSING_NEVER, ErrorString, ExpatError, ParserCreate)

from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.nodes import Document, Element, is_valid_name


class _Refused(Exception):
    """What a callback found wrong; placed where expat stopped."""


def _refuse_doctype(name, system_id, public_id, has_internal_subset):
    if has_internal_subset:
        raise _Refused("a DOCTYPE internal subset is not supported")


def _refuse_entity_declaration(name, *_):
    raise _Refused(f"entity declaration {name!r} is not supported")


def _refuse_skipped_entity(name, is_parameter_entity):
    raise _Refused(f"undefined entity &{name};")


def parse_fragment(source):
    """Parse *source* (``str``, or ``bytes`` read as UTF-8 whatever
    encoding it declares) and return the root :class:`Element`.

    A prolog, comments and whitespace are allowed around the single
    top-level element.  Surrounding whitespace inside text content is
    stripped (sensor documents are data-centric).
    """
    assemble = Element.assemble
    #: The open elements, innermost last: ``(tag, attributes, text
    #: runs, finished children)``, under a holder whose one child is
    #: the root.  An element is built when it closes, and joins its
    #: parent's children then.
    document = []
    stack = [(None, None, None, document)]
    push, pop = stack.append, stack.pop

    def start(tag, attrib):
        if not is_valid_name(tag):
            raise _Refused(f"invalid element name {tag!r}")
        for name in attrib:
            if not is_valid_name(name):
                raise _Refused(f"invalid attribute name {name!r}")
        push((tag, attrib, [], []))

    def end(_):
        tag, attrib, runs, children = pop()
        stack[-1][3].append(assemble(tag, attrib, children,
                                     "".join(runs).strip() or None))

    def text(data):
        stack[-1][2].append(data)

    parser = ParserCreate("utf-8")
    parser.buffer_text = True
    parser.SetParamEntityParsing(XML_PARAM_ENTITY_PARSING_NEVER)
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.StartDoctypeDeclHandler = _refuse_doctype
    parser.EntityDeclHandler = _refuse_entity_declaration
    parser.SkippedEntityHandler = _refuse_skipped_entity
    try:
        parser.Parse(source, True)
    except ExpatError as exc:
        raise XmlParseError(ErrorString(exc.code), exc.lineno,
                            exc.offset + 1) from None
    except _Refused as exc:
        raise XmlParseError(str(exc), parser.CurrentLineNumber,
                            parser.CurrentColumnNumber + 1) from None
    except UnicodeEncodeError:
        # A lone surrogate: expat finds it (or an earlier fault) in the
        # bytes, and says where.
        return parse_fragment(source.encode("utf-8", "surrogatepass"))
    return document[0]


def parse_document(source):
    """Parse *source* and return a :class:`Document`."""
    return Document(parse_fragment(source))


def parse_file(path):
    """Parse the XML file at *path* and return a :class:`Document`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())
