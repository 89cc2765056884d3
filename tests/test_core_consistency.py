"""Unit tests for query-based consistency helpers."""

from repro.core import (
    extract_tolerance,
    rewrite_consistency_sugar,
    strip_consistency_predicates,
    transform_expression,
)
from repro.xpath import parse


class TestSugar:
    def test_paper_syntax_rewritten(self):
        """The paper's [timestamp > now - 30] becomes function calls."""
        ast = rewrite_consistency_sugar(parse("/a[timestamp > now - 30]"))
        assert ast.unparse() == "/a[timestamp() > current-time() - 30]"

    def test_reversed_comparison(self):
        ast = rewrite_consistency_sugar(parse("/a[now - 30 < timestamp]"))
        assert "current-time()" in ast.unparse()
        assert "timestamp()" in ast.unparse()

    def test_genuine_timestamp_element_untouched(self):
        # A multi-step path is not the sugar form.
        ast = rewrite_consistency_sugar(parse("/a[./log/timestamp = '5']"))
        assert "timestamp()" not in ast.unparse()

    def test_non_comparison_context_untouched(self):
        ast = rewrite_consistency_sugar(parse("/a/timestamp"))
        assert ast.unparse() == "/a/timestamp"


class TestStrip:
    def test_strips_pure_consistency_predicate(self):
        ast = strip_consistency_predicates(
            parse("/a[@id='1'][timestamp() > current-time() - 30]/b"))
        assert ast.unparse() == "/a[@id = '1']/b"

    def test_strips_conjunct_only(self):
        ast = strip_consistency_predicates(
            parse("/a[@id='1' and timestamp() > current-time() - 30]"))
        assert ast.unparse() == "/a[@id = '1']"

    def test_keeps_everything_else(self):
        source = "/a[@id = '1'][price > 5]/b"
        assert strip_consistency_predicates(parse(source)).unparse() == source

    def test_nested_paths_processed(self):
        ast = strip_consistency_predicates(
            parse("/a[./b[timestamp() > current-time() - 5]]"))
        assert "current-time" not in ast.unparse()


class TestDetection:
    def test_tolerance_extraction(self):
        predicate = parse(
            "/a[timestamp() > current-time() - 45]").steps[0].predicates[0]
        assert extract_tolerance(predicate) == 45.0

    def test_tolerance_mirrored(self):
        predicate = parse(
            "/a[current-time() - 45 < timestamp()]").steps[0].predicates[0]
        assert extract_tolerance(predicate) == 45.0

    def test_tolerance_none_for_other_shapes(self):
        predicate = parse("/a[timestamp() > 99]").steps[0].predicates[0]
        assert extract_tolerance(predicate) is None

    def test_tolerance_inclusive(self):
        for source in ("/a[timestamp() >= current-time() - 45]",
                       "/a[current-time() - 45 <= timestamp()]"):
            predicate = parse(source).steps[0].predicates[0]
            assert extract_tolerance(predicate) == 45.0


class TestTransform:
    def test_identity_transform_preserves(self):
        source = "/a[@id = '1'][count(b) > 2]/c"
        ast = transform_expression(parse(source), lambda n: n)
        assert ast.unparse() == source

    def test_input_not_mutated(self):
        original = parse("/a[timestamp > now - 30]")
        before = original.unparse()
        rewrite_consistency_sugar(original)
        assert original.unparse() == before
