"""Property-based tests for canonical keys and the summary store.

The canonicalizer's whole contract is "semantics-preserving": for any
query, the canonical form must evaluate identically over any document.
Hypothesis drives that directly, plus the serving rule -- an entry is
never served to a caller its as-of time (or its age) does not satisfy.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.agg.summaries import SummaryStore
from repro.core.semcache import canonical_key
from repro.xmlkit import Element
from repro.xpath import compile_xpath

_tags = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def documents(draw, depth=3):
    element = Element(draw(_tags), attrib={
        "id": str(draw(st.integers(0, 9))),
        "v": str(draw(st.integers(0, 5))),
    })
    if depth > 0:
        for child in draw(st.lists(documents(depth=depth - 1), max_size=3)):
            element.append(child)
    return element


_predicates = st.sampled_from([
    "@v='1'", "@id='2'", "b", "not(@v='0')", "@v < 2", "'1' = @v",
    "@id='1' or @v='2'", "count(b) = 1", "2 >= @v",
])


@st.composite
def queries(draw):
    base = draw(st.sampled_from(["/a", "//a", "//b", "/a/b", "//*",
                                 "/a/b | /a/c", "//b | //a"]))
    predicates = draw(st.lists(_predicates, max_size=3))
    query = base + "".join(f"[{p}]" for p in predicates)
    wrapper = draw(st.sampled_from([None, "count", "boolean"]))
    if wrapper is not None:
        query = f"{wrapper}({query})"
    return query


def _evaluate(query, doc):
    return compile_xpath(query).evaluate(doc)


class TestCanonicalizationPreservesSemantics:
    @given(queries(), documents())
    @settings(max_examples=80, deadline=None)
    def test_canonical_form_evaluates_identically(self, query, doc):
        original = _evaluate(query, doc)
        canonical = _evaluate(canonical_key(query), doc)
        if isinstance(original, list):
            # Union canonicalization may reorder branches; the node-set
            # itself must be identical.
            assert {id(n) for n in original} == {id(n) for n in canonical}
        elif isinstance(original, float) and math.isnan(original):
            assert math.isnan(canonical)
        else:
            assert original == canonical

    @given(queries())
    @settings(max_examples=100, deadline=None)
    def test_canonicalization_is_idempotent(self, query):
        once = canonical_key(query)
        assert canonical_key(once) == once

    @given(st.sampled_from(["/a/b", "//b", "/a"]),
           st.permutations(["@v='1'", "@id='2'", "not(@v='0')"]))
    @settings(max_examples=50, deadline=None)
    def test_predicate_order_never_changes_key(self, base, ordering):
        reference = canonical_key(
            base + "".join(f"[{p}]" for p in sorted(ordering)))
        permuted = canonical_key(
            base + "".join(f"[{p}]" for p in ordering))
        assert permuted == reference

    @given(st.integers(1, 900))
    @settings(max_examples=50, deadline=None)
    def test_consistency_sugar_always_shares_key(self, tolerance):
        sugar = f"/a/b[timestamp > now - {tolerance}]"
        explicit = f"/a/b[timestamp() > current-time() - {tolerance}]"
        assert canonical_key(sugar) == canonical_key(explicit)


_times = st.floats(min_value=0.0, max_value=2000, allow_nan=False)
_spans = st.one_of(st.none(), st.floats(min_value=0.0, max_value=900,
                                        allow_nan=False))


class TestServingRule:
    @given(computed_at=_times,
           as_of=st.one_of(st.none(), st.just(-math.inf), _times),
           bound=_spans, max_age=_spans, now=_times)
    @settings(max_examples=200, deadline=None)
    def test_lookup_serves_exactly_what_the_rule_allows(
            self, computed_at, as_of, bound, max_age, now):
        """A caller with a bound gets data current after ``now -
        bound``, give or take its *max_age*; a caller without one any
        entry, or one no older than its *max_age* when it gives one."""
        cache = SummaryStore()
        cache.store("answer", 1, now=computed_at, as_of=as_of)
        served = cache.lookup("answer", now, bound=bound,
                              max_age=max_age) is not None
        if bound is not None:
            allowed = as_of is not None and \
                now - as_of < bound + (max_age or 0)
        else:
            allowed = max_age is None or now - computed_at <= max_age
        assert served == allowed
