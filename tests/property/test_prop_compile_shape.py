"""Differential properties: a pattern bound from its shape's template is
the pattern compiled from its own text.

``compile_pattern`` builds one template per query *shape* -- the text
with each string literal lifted into a slot -- and binds each text's
literals into it.  ``_compile``, the per-text compile, is the reference.
Queries come from the id-pin and distribution-transparency generators
and from shapes filled with literals that are empty, duplicated,
reversed or punctuated; two texts of one shape are posed back to back.
For each:

(a) the same error, or equal ``pinned_ids`` per item, ``collect_index``
    and anchor;
(b) a bound pattern carries exactly its own text's literals, never
    another text's or a slot sentinel;
(c) on random site databases, equal matches, equal subquery anchors and
    reasons, and subquery texts equal up to the operand order of
    ``or``/``and`` chains (compared by canonical key).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CoreError, HierarchySchema, SensorDatabase
from repro.core.qeg import (
    _compile,
    compile_pattern,
    pattern_key_stats,
    run_qeg,
)
from repro.core.semcache import canonical_key
from repro.xpath.ast import Literal, walk
from repro.xpath.errors import XPathError

from tests.property.test_prop_answer_builder import site_trees
from tests.property.test_prop_distributed import scenarios
from tests.property.test_prop_id_pins import _literal, _queries

_SITE_SCHEMA = HierarchySchema("root", {"root": {"n", "m"},
                                        "n": {"n", "m"}, "m": {"n", "m"}})
_GLOBAL_SCHEMA = HierarchySchema("top", {"top": {"mid"}, "mid": {"leaf"}})

#: Ids with punctuation, including the quotes, brackets and operators
#: of the query syntax itself.
_IDS = ("a", "b", "", "0", "1", "it's", "x&y", "a b", "]/n[",
        '@id="q"', "a'] | /x['")

_SHAPES = (
    "/root[@id={0}]/n[@id={1} or @id={2}]",
    "/root[@id={0}]/n[@id={1}][@id={2}]/m",
    "/root/n[{0} = @id or @id = {1}]//m[@id != {2}]",
    "/root//n[@id={0} and @zone={1}]/v",
    "/root/*[v={0}][@id={1}]/meta/sub",
    "/root/n[@id={0}][../n/@id={1}]/m",
    "/root/n[@id={0}][timestamp() > current-time() - 5]/text()",
    "/root[@zone={0} or @zone={1}]/m[@id={2} or @id={1} or @id={0}]",
)


@st.composite
def _shaped_pairs(draw):
    """Two texts of one shape, their literals drawn independently."""
    shape = draw(st.sampled_from(_SHAPES))
    ids = st.sampled_from(_IDS)
    return tuple(shape.format(*(_literal(draw(ids)) for _ in range(3)))
                 for _ in range(2))


def _literals(pattern):
    """Every string literal a compiled pattern holds."""
    roots = [pattern.ast]
    for item in pattern.items:
        split = item.split
        roots += [item.step, *item.plain_predicates, *item.nested_predicates,
                  *item.residual_predicates, *split.id_predicates,
                  *split.consistency_predicates, *split.rest_predicates]
    return {node.value for root in roots for node in walk(root)
            if isinstance(node, Literal)}


def _walk(database, pattern):
    try:
        result = run_qeg(database, pattern, now=10.0)
    except (CoreError, TypeError) as error:
        # TypeError: a collect point on a node without an id (see
        # test_prop_id_pins); both walks must fail alike.
        return type(error).__name__
    return ([id(match) for match in result.matches],
            [(tuple(sq.anchor_path), sq.reason, sq.consumed, sq.subtree,
              sq.descendant_gap, canonical_key(sq.query))
             for sq in result.subqueries])


def _check(text, schema, databases=()):
    """Compare the memo's pattern for *text* with a per-text compile;
    returns whether *text* compiled."""
    try:
        expected = _compile(text, schema)
    except (CoreError, XPathError) as error:
        with pytest.raises(type(error)) as raised:
            compile_pattern(text, schema)
        assert str(raised.value) == str(error), text
        return False
    bound = compile_pattern(text, schema)
    assert [item.pinned_ids for item in bound.items] == \
        [item.pinned_ids for item in expected.items], text
    assert bound.collect_index == expected.collect_index, text
    assert bound.anchor == expected.anchor, text
    assert _literals(bound) == _literals(expected), text
    for database in databases:
        assert _walk(database, bound) == _walk(database, expected), text
    return True


def _site_database(tree):
    return SensorDatabase(tree, clock=lambda: 10.0)


class TestABoundPatternIsItsTextsPattern:
    @given(site_trees(), _queries(), st.sampled_from((None, _SITE_SCHEMA)))
    @settings(max_examples=200, deadline=None)
    def test_id_pin_queries(self, tree, query, schema):
        _check(query, schema, [_site_database(tree)])

    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_distributed_queries_at_every_site(self, scenario):
        document, plan, query_list = scenario
        databases = list(plan.build_databases(document).values())
        for query in query_list:
            _check(query, _GLOBAL_SCHEMA, databases)

    @given(site_trees(), _shaped_pairs(),
           st.sampled_from((None, _SITE_SCHEMA)))
    @settings(max_examples=200, deadline=None)
    def test_two_texts_of_one_shape_back_to_back(self, tree, texts,
                                                 schema):
        first, second = texts
        database = _site_database(tree)
        compiled = _check(first, schema, [database])
        builds = pattern_key_stats()["canonical_compiles"]
        assert _check(second, schema, [database]) == compiled
        # The second text found its shape's template in the memo.
        assert pattern_key_stats()["canonical_compiles"] == builds


@pytest.mark.parametrize("predicate, pins", [
    ("[@id='']", {""}),
    ("[@id='a' or @id='a']", {"a"}),
    ("[@id='b' or @id='a']", {"a", "b"}),
    ("[@id='a'][@id='a']", {"a"}),
    ("[@id='a'][@id='b']", set()),
])
def test_empty_duplicated_and_reversed_literals(predicate, pins):
    text = "/root/n" + predicate + "/m"
    assert _check(text, _SITE_SCHEMA)
    assert compile_pattern(text, _SITE_SCHEMA).items[1].pinned_ids == pins
