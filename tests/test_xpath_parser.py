"""Unit tests for the XPath grammar and unparse round-trips."""

import pytest

from repro.xpath import compile_xpath, parse
from repro.xpath import parser as parser_module
from repro.xpath.ast import (
    BinaryOperation,
    FilterExpression,
    FunctionCall,
    Literal,
    LocationPath,
    NumberLiteral,
    VariableReference,
)
from repro.xpath.errors import XPathSyntaxError, XPathUnsupportedError


class TestLocationPaths:
    def test_absolute_path(self):
        ast = parse("/a/b/c")
        assert isinstance(ast, LocationPath)
        assert ast.absolute
        assert [s.node_test.name for s in ast.steps] == ["a", "b", "c"]
        assert all(s.axis == "child" for s in ast.steps)

    def test_relative_path(self):
        ast = parse("a/b")
        assert not ast.absolute

    def test_root_only(self):
        ast = parse("/")
        assert ast.absolute and ast.steps == []

    def test_double_slash_desugars(self):
        ast = parse("/a//c")
        axes = [s.axis for s in ast.steps]
        assert axes == ["child", "descendant-or-self", "child"]

    def test_leading_double_slash(self):
        ast = parse("//c")
        assert ast.absolute
        assert ast.steps[0].axis == "descendant-or-self"

    def test_attribute_step(self):
        ast = parse("@id")
        assert ast.steps[0].axis == "attribute"
        assert ast.steps[0].node_test.name == "id"

    def test_dot_and_dotdot(self):
        ast = parse("./..")
        assert ast.steps[0].axis == "self"
        assert ast.steps[1].axis == "parent"

    def test_explicit_axes(self):
        ast = parse("ancestor::a/descendant::b/self::c")
        assert [s.axis for s in ast.steps] == \
            ["ancestor", "descendant", "self"]

    def test_wildcard(self):
        assert parse("/*").steps[0].node_test.name == "*"

    def test_node_and_text_tests(self):
        ast = parse("node()/text()")
        assert ast.steps[0].node_test.node_type == "node"
        assert ast.steps[1].node_test.node_type == "text"

    def test_predicates_attach_to_steps(self):
        ast = parse("/a[@id='1'][b]")
        assert len(ast.steps[0].predicates) == 2


class TestExpressions:
    def test_precedence_or_and(self):
        ast = parse("a or b and c")
        assert isinstance(ast, BinaryOperation) and ast.operator == "or"
        assert ast.right.operator == "and"

    def test_precedence_arithmetic(self):
        ast = parse("1 + 2 * 3")
        assert ast.operator == "+"
        assert ast.right.operator == "*"

    def test_parentheses(self):
        ast = parse("(1 + 2) * 3")
        assert ast.operator == "*"

    def test_unary_minus(self):
        ast = parse("-1 + 2")
        assert ast.operator == "+"

    def test_comparison_chain(self):
        ast = parse("a = b != c")
        assert ast.operator == "!="

    def test_function_call(self):
        ast = parse("concat('a', 'b', 'c')")
        assert isinstance(ast, FunctionCall)
        assert len(ast.arguments) == 3

    def test_nested_function(self):
        ast = parse("not(count(a) > 2)")
        assert ast.name == "not"

    def test_literal_and_number(self):
        assert isinstance(parse("'x'"), Literal)
        assert isinstance(parse("3.5"), NumberLiteral)

    def test_variable(self):
        assert isinstance(parse("$v"), VariableReference)

    def test_union(self):
        ast = parse("a | b | c")
        assert ast.operator == "|"

    def test_filter_expression_with_path(self):
        ast = parse("$nodes[@id='1']/b")
        assert isinstance(ast, FilterExpression)
        assert ast.path is not None

    def test_paper_min_query(self):
        """The paper's least-pricey-spot query parses (no min in XPath 1.0)."""
        ast = parse("/a/block[@id='1']/parkingSpace"
                    "[not(price > ../parkingSpace/price)]")
        space_step = ast.steps[-1]
        assert len(space_step.predicates) == 1


class TestUnsupported:
    def test_position_rejected(self):
        with pytest.raises(XPathUnsupportedError):
            parse("/a[position() = 1]")

    def test_last_rejected(self):
        with pytest.raises(XPathUnsupportedError):
            parse("/a[last()]")

    def test_numeric_predicate_rejected(self):
        with pytest.raises(XPathUnsupportedError):
            parse("/a[1]")

    def test_following_sibling_rejected(self):
        with pytest.raises(XPathUnsupportedError):
            parse("/a/following-sibling::b")

    def test_preceding_rejected(self):
        with pytest.raises(XPathUnsupportedError):
            parse("/a/preceding::b")

    def test_comment_nodes_rejected(self):
        with pytest.raises(XPathUnsupportedError):
            parse("/a/comment()")


class TestSyntaxErrors:
    @pytest.mark.parametrize("bad", [
        "", "/a[", "/a]", "a//", "/a[@id=]", "f(", "a b", "()", "/a[]",
        "unknownaxis::a",
    ])
    def test_rejected(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse(bad)


class TestUnparse:
    @pytest.mark.parametrize("query", [
        "/a/b/c",
        "/a[@id = 'x']/b",
        "/a[@id = 'x' or @id = 'y']/b[@id = '1']",
        "//c",
        "/a//c",
        "count(/a/b) > 2",
        "not(price > ../parkingSpace/price)",
        "/a[b = 'x' and c = 'y']",
        "a | b",
        "concat('x', 'y')",
        "$v + 1",
        "-(2 + 3)",
        "/a[count(b) = 2]",
        "substring('hello', 2, 3)",
    ])
    def test_roundtrip_stable(self, query):
        once = parse(query).unparse()
        twice = parse(once).unparse()
        assert once == twice

    def test_roundtrip_preserves_semantics(self, paper_doc):
        from repro.xpath import compile_xpath

        query = ("/usRegion[@id='NE']//parkingSpace[available='yes']"
                 "[price='25']")
        original = compile_xpath(query).select(paper_doc)
        roundtripped = compile_xpath(parse(query).unparse()).select(paper_doc)
        assert [id(n) for n in original] == [id(n) for n in roundtripped]

    def test_dot_dotdot_roundtrip(self):
        assert parse("./../a").unparse() == "./../a"


class TestParseMemo:
    """``parse_cached``: one shared tree per query text, bounded."""

    QUERY = "/a[@id='1']/b[price > 5 and timestamp > now - 30]//c"

    def test_one_parse_per_distinct_text(self, monkeypatch):
        parsed = []
        real = parser_module.parse
        monkeypatch.setattr(
            parser_module, "parse",
            lambda source: parsed.append(source) or real(source))
        parser_module.parse_cached.cache_clear()
        first = parser_module.parse_cached(self.QUERY)
        assert parser_module.parse_cached(self.QUERY) is first
        assert compile_xpath(self.QUERY).ast is first
        assert parsed == [self.QUERY]

    def test_memo_is_bounded_by_the_module_constant(self):
        info = parser_module.parse_cached.cache_info()
        assert info.maxsize == parser_module.PARSE_MEMO_SIZE
        for index in range(parser_module.PARSE_MEMO_SIZE + 10):
            parser_module.parse_cached(f"/a[@id='{index}']")
        assert parser_module.parse_cached.cache_info().currsize == \
            parser_module.PARSE_MEMO_SIZE

    def test_mutating_a_parsed_tree_cannot_poison_the_memo(self):
        # ``parse`` is the API that hands a caller a tree of its own.
        shared = parser_module.parse_cached(self.QUERY)
        mine = parse(self.QUERY)
        assert mine is not shared
        mine.steps.pop()
        mine.steps[0].predicates.clear()
        assert parser_module.parse_cached(self.QUERY) is shared
        assert shared.unparse() == parse(self.QUERY).unparse()

    def test_syntax_errors_are_raised_every_time(self):
        for _ in range(2):
            with pytest.raises(XPathSyntaxError):
                parser_module.parse_cached("/a[")
