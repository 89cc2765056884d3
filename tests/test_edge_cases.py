"""Edge-case tests across packages: the odd corners the main suites
walk past."""

import math

import pytest

from repro.xmlkit import Element, parse_fragment
from repro.xpath import compile_xpath
from repro.xpath.types import format_number, to_number, to_string


class TestXmlkitCorners:
    def test_deeply_nested_parse(self):
        depth = 200
        text = "".join(f"<n{i}>" for i in range(depth)) + \
            "".join(f"</n{len(range(depth)) - 1 - i}>" for i in range(depth))
        element = parse_fragment(text)
        assert element.tag == "n0"
        assert sum(1 for _ in element.iter()) == depth

    def test_attribute_value_with_both_quote_styles(self):
        element = Element("a")
        element.set("v", "it's \"quoted\"")
        from repro.xmlkit import serialize

        again = parse_fragment(serialize(element))
        assert again.get("v") == "it's \"quoted\""


class TestXPathTypeCorners:
    def test_format_number_edge_values(self):
        assert format_number(float("nan")) == "NaN"
        assert format_number(float("inf")) == "Infinity"
        assert format_number(float("-inf")) == "-Infinity"
        assert format_number(-0.0) == "0"
        assert format_number(3.0) == "3"

    def test_to_number_whitespace(self):
        assert to_number("  42  ") == 42.0
        assert math.isnan(to_number(""))

    def test_to_string_of_empty_node_set(self):
        assert to_string([]) == ""

    def test_negative_zero_comparisons(self, paper_doc):
        assert compile_xpath("0 = -0").evaluate(paper_doc) is True

    def test_nan_never_equal(self, paper_doc):
        assert compile_xpath(
            "number('x') = number('x')").evaluate(paper_doc) is False

    def test_infinity_arithmetic(self, paper_doc):
        assert compile_xpath("1 div 0 > 1000000").evaluate(paper_doc) is True


class TestQueryCorners:
    def test_query_for_attribute_value(self, paper_doc):
        result = compile_xpath(
            "//neighborhood[@id='Oakland']/@zipcode").select(paper_doc)
        assert [a.value for a in result] == ["15213"]

    def test_boolean_of_attribute_presence(self, paper_doc):
        assert compile_xpath(
            "boolean(//neighborhood/@zipcode)").evaluate(paper_doc) is True

    def test_chained_filter_expression(self, paper_doc):
        result = compile_xpath(
            "(//block)[@id='1']/parkingSpace").select(paper_doc)
        assert len(result) == 5  # block 1 of Oakland(2), Shadyside(2), Etna(1)

    def test_union_of_disjoint_regions(self, paper_doc):
        result = compile_xpath(
            "//neighborhood[@id='Oakland']/block | "
            "//neighborhood[@id='Shadyside']/block").select(paper_doc)
        assert len(result) == 3

    def test_arithmetic_over_node_values(self, paper_doc):
        total = compile_xpath(
            "sum(//neighborhood[@id='Oakland']//price) div "
            "count(//neighborhood[@id='Oakland']//price)"
        ).evaluate(paper_doc)
        assert total == pytest.approx((25 + 0 + 0) / 3)


class TestDistributedCorners:
    def test_query_whose_root_tag_mismatches(self, paper_cluster):
        results, _site, _o = paper_cluster.query("/wrongRoot[@id='NE']/x")
        assert results == []

    def test_id_with_spaces_routes(self, paper_doc):
        from repro.core import PartitionPlan
        from repro.net import Cluster

        city = paper_doc.child("state").child("county") \
            .child("city", id="Pittsburgh")
        nb = Element("neighborhood", attrib={"id": "New Hope"})
        nb.append(Element("block", attrib={"id": "1"}, text="x"))
        city.append(nb)
        cluster = Cluster(paper_doc, PartitionPlan(
            {"top": [(("usRegion", "NE"),)]}))
        query = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='New Hope']")
        site, path = cluster.route_query(query)
        assert site == "top"
        results, _, _ = cluster.query(query)
        assert len(results) == 1

    def test_empty_result_stays_empty_after_caching(self, paper_cluster):
        query = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Oakland']/block[@id='1']"
                 "/parkingSpace[price='9999']")
        first, _, _ = paper_cluster.query(query)
        second, _, _ = paper_cluster.query(query)
        assert first == [] and second == []

    def test_same_query_different_tolerances(self, paper_doc, paper_plan,
                                             settable_clock):
        from repro.net import Cluster

        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        base = ("/usRegion[@id='NE']/state[@id='PA']"
                "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                "/neighborhood[@id='Shadyside']/block[@id='1']")
        cluster.query(base, at_site="top")
        settable_clock.advance(100)
        loose = base + "[timestamp() > current-time() - 1000]"
        tight = base + "[timestamp() > current-time() - 5]"
        results_loose, _, _ = cluster.query(loose, at_site="top")
        results_tight, _, _ = cluster.query(tight, at_site="top")
        # Both return the block; the tight one had to visit the owner.
        assert len(results_loose) == len(results_tight) == 1

    def test_deep_wildcard_everything(self, paper_cluster, paper_doc):
        results, _, _ = paper_cluster.query("/usRegion[@id='NE']//block")
        assert len(results) == 4
        assert paper_cluster.validate(paper_doc) == []
