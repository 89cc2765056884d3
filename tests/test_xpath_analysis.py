"""Unit tests for the query analyses: all the paper's worked examples."""

from repro.core import HierarchySchema, compile_pattern
from repro.xpath import parse
from repro.xpath.analysis import (
    classify_predicate,
    dns_name_for_id_path,
    extract_id_path,
    nesting_depth,
    sanitize_dns_label,
    split_predicates,
)

FIGURE2 = (
    "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
    "/city[@id='Pittsburgh']"
    "/neighborhood[@id='Oakland' OR @id='Shadyside']"
    "/block[@id='1']/parkingSpace[available='yes']"
)


class TestIdPathExtraction:
    def test_figure2_lca_is_pittsburgh(self):
        path = extract_id_path(parse(FIGURE2))
        assert path == [("usRegion", "NE"), ("state", "PA"),
                        ("county", "Allegheny"), ("city", "Pittsburgh")]

    def test_full_single_target_path(self):
        path = extract_id_path(parse("/a[@id='1']/b[@id='2']/c[@id='3']"))
        assert path == [("a", "1"), ("b", "2"), ("c", "3")]

    def test_stops_at_wildcard(self):
        assert extract_id_path(parse("/a[@id='1']/*/c[@id='3']")) == \
            [("a", "1")]

    def test_stops_at_missing_id(self):
        assert extract_id_path(parse("/a[@id='1']/b/c[@id='3']")) == \
            [("a", "1")]

    def test_stops_at_descendant(self):
        assert extract_id_path(parse("/a[@id='1']//c[@id='3']")) == \
            [("a", "1")]

    def test_relative_query_has_no_prefix(self):
        assert extract_id_path(parse("a[@id='1']")) == []

    def test_conjunction_with_other_predicates_still_pins(self):
        path = extract_id_path(
            parse("/a[@id='1' and @zipcode='15213']/b[@id='2']"))
        assert path == [("a", "1"), ("b", "2")]

    def test_reversed_equality(self):
        assert extract_id_path(parse("/a['1' = @id]")) == [("a", "1")]


class TestDnsNames:
    def test_paper_name(self):
        path = extract_id_path(parse(FIGURE2))
        assert dns_name_for_id_path(path) == \
            "pittsburgh.allegheny.pa.ne.parking.intel-iris.net"

    def test_custom_service_zone(self):
        assert dns_name_for_id_path([("a", "X")], service="coast",
                                    zone="example.org") == \
            "x.coast.example.org"

    def test_label_sanitization(self):
        assert sanitize_dns_label("New York") == "new-york"
        assert sanitize_dns_label("Squirrel.Hill") == "squirrel-hill"
        assert sanitize_dns_label("") == "x"
        assert sanitize_dns_label("--a--") == "a"


class TestNestingDepth:
    """Exactly the examples below Definition 3.3."""

    def test_example_1(self):
        assert nesting_depth(parse("/a[@id='x']/b[@id='y']/c"),
                             {"a", "b", "c"}) == 0

    def test_example_2(self):
        assert nesting_depth(parse("/a[@id='x']//c"), {"a", "c"}) == 0

    def test_example_3_idable(self):
        assert nesting_depth(parse("/a[./b/c]/b"), {"b"}) == 1

    def test_example_3_not_idable(self):
        assert nesting_depth(parse("/a[./b/c]/b"), set()) == 0

    def test_example_4(self):
        query = parse("/a[count(./b/c) = 5]/b")
        assert nesting_depth(query, {"b"}) == 1
        assert nesting_depth(query, set()) == 0

    def test_example_5(self):
        query = parse("/a[count(./b[./c[@id='1']])]")
        assert nesting_depth(query, {"c"}) == 2
        assert nesting_depth(query, {"b"}) == 1
        assert nesting_depth(query, set()) == 0

    def test_paper_min_query_depth_1(self):
        query = parse(
            "/block[@id='1']/parkingSpace[not(price > ../parkingSpace/price)]"
        )
        assert nesting_depth(query, {"block", "parkingSpace"}) == 1

    def test_default_assumes_idable(self):
        assert nesting_depth(parse("/a[./b]/c")) == 1

    def test_attribute_only_predicates_are_depth_0(self):
        assert nesting_depth(parse("/a[@x='1'][@y='2']"), {"a"}) == 0


def _schema(*idable):
    """A schema whose IDable tags are *idable* and a root no query names."""
    return HierarchySchema("root", {"root": set(idable)})


class TestCollectPoint:
    """Section 4's collect point, as the compiler places it."""

    def test_upward_reference_moves_collect_point(self):
        query = ("/n[@id='o']/block[@id='1']"
                 "/parkingSpace[not(price > ../parkingSpace/price)]")
        pattern = compile_pattern(query, _schema("n", "block", "parkingSpace"))
        assert pattern.collect_index == 1  # the block step

    def test_no_nesting_no_collect_point(self):
        assert compile_pattern("/a[@id='1']/b",
                               _schema("a", "b")).collect_index is None

    def test_self_referencing_nested_predicate(self):
        query = "/city[./neighborhood[@id='Oakland']]"
        assert compile_pattern(
            query, _schema("city", "neighborhood")).collect_index == 0

    def test_absolute_predicate_path_collects_at_the_root(self):
        # It reads from the root, which is IDable (Definition 3.1).
        assert compile_pattern("/a/b/c[/a/b]",
                               _schema("a", "b")).collect_index == 0

    def test_absolute_predicate_path_nests_without_idable_tags(self):
        pattern = compile_pattern("/a[/c]/b", _schema())
        assert pattern.collect_index == 0
        assert nesting_depth(parse("/a[/c]/b"), set()) == 1

    def test_a_descendant_gap_is_not_a_step(self):
        # The pattern items are a, b, d: ``//`` joins a to b.
        assert compile_pattern("/a//b[./c]/d",
                               _schema("c")).collect_index == 1


class TestPredicateClassification:
    def test_id_only(self):
        predicate = parse("/a[@id='x']").steps[0].predicates[0]
        assert classify_predicate(predicate) == frozenset({"id"})

    def test_consistency(self):
        predicate = parse(
            "/a[timestamp() > current-time() - 30]").steps[0].predicates[0]
        assert classify_predicate(predicate) == frozenset({"consistency"})

    def test_other(self):
        predicate = parse("/a[available='yes']").steps[0].predicates[0]
        assert classify_predicate(predicate) == frozenset({"other"})

    def test_context_free(self):
        predicate = parse("/a[true()]").steps[0].predicates[0]
        assert classify_predicate(predicate) == frozenset()

    def test_split_clean(self):
        step = parse("/a[@id='x'][available='yes']"
                     "[timestamp() > current-time() - 9]").steps[0]
        split = split_predicates(step.predicates)
        assert split.separable
        assert len(split.id_predicates) == 1
        assert len(split.rest_predicates) == 1
        assert len(split.consistency_predicates) == 1

    def test_split_and_conjunction(self):
        step = parse("/a[@id='x' and available='yes']").steps[0]
        split = split_predicates(step.predicates)
        assert split.separable
        assert [p.unparse() for p in split.id_predicates] == ["@id = 'x'"]
        assert [p.unparse() for p in split.rest_predicates] == \
            ["available = 'yes'"]

    def test_split_or_mixture_not_separable(self):
        step = parse("/a[@id='x' or available='yes']").steps[0]
        split = split_predicates(step.predicates)
        assert not split.separable
        assert len(split.rest_predicates) == 1

    def test_id_disjunction_is_separable(self):
        step = parse("/a[@id='x' or @id='y']").steps[0]
        split = split_predicates(step.predicates)
        assert split.separable
        assert len(split.id_predicates) == 1
