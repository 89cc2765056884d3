"""Unit tests for the XML parser."""

from xml.parsers.expat import errors as expat_errors

import pytest

from repro.xmlkit import (
    Document,
    Element,
    Text,
    XmlParseError,
    XmlStructureError,
    parse_document,
    parse_fragment,
    serialize,
)


class TestBasics:
    def test_empty_element(self):
        element = parse_fragment("<a/>")
        assert element.tag == "a"
        assert element.children == []

    def test_open_close(self):
        assert parse_fragment("<a></a>").tag == "a"

    def test_attributes_double_and_single_quotes(self):
        element = parse_fragment('<a x="1" y=\'2\'/>')
        assert element.get("x") == "1"
        assert element.get("y") == "2"

    def test_paper_at_notation_is_not_xml(self):
        """The paper's figures write <usRegion @id='NE'>; XML does not."""
        with pytest.raises(XmlParseError):
            parse_fragment("<usRegion @id='NE'/>")

    def test_nested_elements(self):
        element = parse_fragment("<a><b><c/></b><b/></a>")
        assert len(list(element.element_children("b"))) == 2

    def test_text_content(self):
        element = parse_fragment("<a>  hello world  </a>")
        assert element.text == "hello world"

    def test_mixed_text_and_elements(self):
        element = parse_fragment("<a>pre<b/>post</a>")
        # Data-centric model: text is consolidated.
        assert element.child("b") is not None
        assert "pre" in element.string_value()

    def test_whitespace_only_text_dropped(self):
        element = parse_fragment("<a>\n  <b/>\n</a>")
        assert element.text is None

    def test_prolog_and_comments(self):
        element = parse_fragment(
            "<?xml version='1.0'?><!-- hi --><a/><!-- bye -->")
        assert element.tag == "a"

    def test_inner_comments_ignored(self):
        element = parse_fragment("<a><!-- note --><b/></a>")
        assert element.child("b") is not None

    def test_doctype_skipped(self):
        assert parse_fragment("<!DOCTYPE a><a/>").tag == "a"

    def test_cdata(self):
        element = parse_fragment("<a><![CDATA[x < y & z]]></a>")
        assert element.text == "x < y & z"

    def test_processing_instruction_inside(self):
        element = parse_fragment("<a><?pi data?><b/></a>")
        assert element.child("b") is not None


class TestEntities:
    def test_predefined_entities(self):
        element = parse_fragment("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        assert element.text == "<>&\"'"

    def test_numeric_entities(self):
        assert parse_fragment("<a>&#65;&#x42;</a>").text == "AB"

    def test_entities_in_attributes(self):
        assert parse_fragment("<a x='&amp;&lt;'/>").get("x") == "&<"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a>&amp</a>")

    def test_bad_char_reference_rejected(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a>&#xZZ;</a>")


class TestErrors:
    def test_mismatched_close_tag(self):
        with pytest.raises(XmlParseError) as info:
            parse_fragment("<a><b></a></b>")
        # The kind of error, in the running expat's own words.
        assert str(info.value).startswith(expat_errors.XML_ERROR_TAG_MISMATCH)
        assert (info.value.line, info.value.column) == (1, 9)  # </a>

    def test_unclosed_element(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a><b>")

    def test_unquoted_attribute(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a x=1/>")

    def test_duplicate_attribute(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a x='1' x='2'/>")

    def test_trailing_garbage(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a/><b/>")

    def test_not_an_element(self):
        with pytest.raises(XmlParseError):
            parse_fragment("just text")

    def test_error_carries_position(self):
        with pytest.raises(XmlParseError) as info:
            parse_fragment("<a>\n<a x=></a></a>")
        assert info.value.line == 2
        assert info.value.column > 0

    def test_lt_in_attribute_rejected(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a x='<'/>")

    def test_invalid_element_name(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<1a/>")

    @pytest.mark.parametrize("text", [
        "<a\u00e9/>", "<a:b/>", "<a \u00e9='1'/>", "<a b:c='1'/>"])
    def test_names_xml_allows_but_the_node_model_does_not(self, text):
        with pytest.raises(XmlParseError):
            parse_fragment(text)


class TestHostileInput:
    """Nothing but the text is read, and nothing in it expands."""

    def test_doctype_internal_subset_refused(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<!DOCTYPE a [ ]><a/>")

    def test_entity_declaration_refused(self):
        laughs = "".join(
            f'<!ENTITY l{n} "{f"&l{n - 1};" * 10 if n else "lol"}">'
            for n in range(10))
        with pytest.raises(XmlParseError):
            parse_fragment(f"<!DOCTYPE a [{laughs}]><a>&l9;</a>")

    def test_external_entity_reference_refused_unread(self, tmp_path):
        declarations = tmp_path / "a.dtd"
        declarations.write_text('<!ENTITY e "read">')
        secret = tmp_path / "secret.txt"
        secret.write_text("read")
        for text in (
                f'<!DOCTYPE a SYSTEM "{declarations.as_uri()}"><a>&e;</a>',
                f'<!DOCTYPE a [<!ENTITY e SYSTEM "{secret.as_uri()}">]>'
                "<a>&e;</a>"):
            with pytest.raises(XmlParseError) as info:
                parse_fragment(text)
            assert "read" not in str(info.value)

    def test_attlist_default_not_injected(self):
        with pytest.raises(XmlParseError):
            parse_fragment(
                '<!DOCTYPE a [<!ATTLIST a status CDATA "owned">]><a/>')

    def test_bare_doctype_still_skipped(self):
        assert parse_fragment('<!DOCTYPE a SYSTEM "a.dtd"><a/>').attrib == {}


class TestForbiddenCharacters:
    @pytest.mark.parametrize("text", [
        "<a>\x01</a>", "<a>&#1;</a>", "<a x='&#x1;'/>", "<a>&#xFFFE;</a>",
        "<a>\ud800</a>", "<a>&#55296;</a>"])
    def test_refused_raw_and_as_a_reference(self, text):
        with pytest.raises(XmlParseError):
            parse_fragment(text)

    def test_lone_surrogate_is_placed(self):
        with pytest.raises(XmlParseError) as info:
            parse_fragment("<a>\n <b>\ud800</b></a>")
        assert (info.value.line, info.value.column) == (2, 5)

    def test_a_declared_encoding_does_not_let_a_surrogate_through(self):
        with pytest.raises(XmlParseError):
            parse_fragment(
                "<?xml version='1.0' encoding='latin-1'?><a>\ud800</a>")

    def test_bytes_are_read_as_utf8_whatever_they_declare(self):
        text = "<?xml version='1.0' encoding='latin-1'?><a>\u00e9</a>"
        assert parse_fragment(text.encode("utf-8")).text == "\u00e9"

    @pytest.mark.parametrize("build", [
        lambda: Element("a", text="x\x01"),
        lambda: Element("a", attrib={"id": "\x01"}),
        lambda: Element("a").set("x", "\ud800"),
        lambda: Element("a").set_text("\x0b"),
        lambda: Element("a").append(Text("\ufffe")),
    ])
    def test_no_element_takes_one(self, build):
        with pytest.raises(XmlStructureError, match="XML 1.0"):
            build()


class TestNormalization:
    def test_raw_tab_newline_and_cr_are_normalized(self):
        element = parse_fragment("<a x='p\tq\nr'>y\r\nz\rw</a>")
        assert element.get("x") == "p q r"
        assert element.text == "y\nz\nw"

    def test_serializer_escapes_what_normalization_changes(self):
        element = Element("a", attrib={"x": "p\tq\nr\rs"}, text="y\rz\tw")
        text = serialize(element)
        assert text == '<a x="p&#9;q&#10;r&#13;s">y&#13;z\tw</a>'
        again = parse_fragment(text)
        assert again.get("x") == "p\tq\nr\rs"
        assert again.text == "y\rz\tw"


class TestRoundtrip:
    def test_serialize_parse_roundtrip(self, paper_doc):
        text = serialize(paper_doc)
        again = parse_fragment(text)
        assert serialize(again) == text

    def test_pretty_roundtrip(self, paper_doc):
        from repro.xmlkit import trees_equal

        pretty = serialize(paper_doc, pretty=True)
        assert trees_equal(parse_fragment(pretty), paper_doc)

    def test_parse_document_wraps(self):
        doc = parse_document("<a/>")
        assert isinstance(doc, Document)
        assert doc.root.tag == "a"

    def test_parse_file(self, tmp_path):
        from repro.xmlkit import parse_file, write_file

        path = tmp_path / "doc.xml"
        write_file(parse_fragment("<a><b id='1'>x</b></a>"), str(path))
        doc = parse_file(str(path))
        assert doc.root.child("b").text == "x"
