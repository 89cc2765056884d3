"""Fast creation on the live compile: a text bound into its shape's
template walks exactly like the text compiled afresh.

Section 4's fast XSLT creation keeps one compiled skeleton per query
shape and patches in only the slots a query fills.  ``compile_pattern``
does this: the first text of a shape (the text with its string literals
lifted into slots) builds the shape's template, and every later text of
that shape is bound into it.  ``_compile`` is naive per-text creation
and the reference here.  Each query of the corpus is posed at every
site of a three-site plan over the paper's document, after a sibling
text of its shape -- same text, other literals -- built the template.
Id-pinned, ``or``-pinned, descendant, wildcard, nested, parent-axis
and consistency predicates all take the same path.
"""

import pytest

from repro.core import HierarchySchema, PartitionPlan, run_qeg
from repro.core import qeg
from repro.core.qeg import _LITERAL, CompiledPattern, _compile, compile_pattern
from repro.core.semcache import canonical_key
from repro.net import Cluster
from repro.xmlkit import parse_fragment, serialize
from repro.xpath import parse
from repro.xpath.evaluator import Evaluator

from tests.conftest import OAKLAND, PAPER_DOCUMENT, SHADYSIDE, id_path
from tests.property.test_prop_id_pins import _node_key
from tests.test_failure_injection import PAPER_PLAN, answer_set

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")

BLOCK = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
AVAILABLE = BLOCK + "/parkingSpace[available='yes']"
CONSISTENCY = (PREFIX + "/neighborhood[@id='Oakland']"
               "[timestamp() > current-time() - 30]/block")
FRESH = "[timestamp() > current-time() - 600]"

#: The corpus, by name.
QUERIES = {
    "block": BLOCK,
    "available": AVAILABLE,
    "or-pin": PREFIX + "/neighborhood[@id='Oakland' or @id='Shadyside']"
                       "/block[@id='1']/parkingSpace[available='yes']",
    "unpinned-step": PREFIX + "/neighborhood/block[@id='2']",
    "no-such-id": PREFIX + "/neighborhood[@id='Nowhere']/block",
    "descendant": "/usRegion[@id='NE']//parkingSpace",
    "descendant-pinned": "/usRegion[@id='NE']//block[@id='1']"
                         "/parkingSpace[available='no']",
    "unseparable-or": PREFIX + "/neighborhood[@id='Oakland'"
                               " or @zipcode='15213']",
    "attribute-value": PREFIX + "/neighborhood[@zipcode='15232']/block"
                                "/parkingSpace[price='25']",
    "leaf": PREFIX + "/neighborhood[@id='Shadyside']/available-spaces",
    "pinned-leaf": BLOCK + "/parkingSpace[@id='2']/price",
    "nested": PREFIX + "/neighborhood[@id='Oakland']"
                       "/block[parkingSpace/available='yes']",
    "consistency": CONSISTENCY,
    "unpinned-city": "/usRegion[@id='NE']/state[@id='PA']"
                     "/county[@id='Allegheny']/city"
                     "/neighborhood[@id='Riverfront']",
    "and-values": BLOCK + "/parkingSpace[available='yes' and price='25']",
    "wildcard": PREFIX + "/*[@id='Oakland']/block",
    "text": PREFIX + "/neighborhood[@id='Shadyside']"
                     "/block[@id='1' or @id='2']"
                     "/parkingSpace/available/text()",
    "parent-axis": BLOCK + "/parkingSpace[../parkingSpace/@id='2']",
}


@pytest.fixture
def dbs(paper_doc):
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
    })
    return plan.partition(paper_doc)[1]


@pytest.fixture
def builds(monkeypatch):
    """The texts each shape template was built from, in order."""
    texts = []
    original = qeg._build_template

    def counting(parts, text, schema):
        texts.append(text)
        return original(parts, text, schema)

    monkeypatch.setattr(qeg, "_build_template", counting)
    return texts


def _schema(document):
    return HierarchySchema.from_document(document)


def _sibling(text):
    """*text* with every string literal replaced: one shape, other
    literals."""
    return _LITERAL.sub(lambda m: m.group(0)[0] + "~" + m.group(0)[1:],
                        text)


def _walk(database, pattern, now=1000.0):
    result = run_qeg(database, pattern, now=now)
    answer = result.answer
    return ([_node_key(match) for match in result.matches],
            [(tuple(sq.anchor_path), sq.reason, canonical_key(sq.query))
             for sq in result.subqueries],
            None if answer is None else serialize(answer))


def _bound(text, schema, builds):
    """The memo's pattern for *text*, bound into a template a sibling
    text of its shape built."""
    compile_pattern(_sibling(text), schema)
    assert builds == [_sibling(text)]
    pattern = compile_pattern(text, schema)
    assert builds == [_sibling(text)], "the text rebuilt its shape"
    return pattern


class TestBoundEqualsNaive:
    @pytest.mark.parametrize("query", QUERIES.values(), ids=QUERIES)
    @pytest.mark.parametrize("site", ["top", "oak", "shady"])
    def test_same_walk_at_every_site(self, dbs, paper_doc, builds, site,
                                     query):
        schema = HierarchySchema.from_document(paper_doc)
        bound = _bound(query, schema, builds)
        naive = _compile(query, schema)
        assert bound.anchor == naive.anchor
        assert bound.source == naive.source
        assert [item.pinned_ids for item in bound.items] == \
            [item.pinned_ids for item in naive.items]
        assert [item.pins_exact for item in bound.items] == \
            [item.pins_exact for item in naive.items]
        assert bound.collect_index == naive.collect_index
        assert _walk(dbs[site], bound) == _walk(dbs[site], naive)

    @pytest.fixture
    def clones(self, monkeypatch):
        """The template AST nodes cloned, in order."""
        cloned = []
        original = qeg._rebuild

        def counting(node, clone, values):
            cloned.append(node)
            return original(node, clone, values)

        monkeypatch.setattr(qeg, "_rebuild", counting)
        return cloned

    @pytest.mark.parametrize("query", [BLOCK, BLOCK + FRESH],
                             ids=["block", "fresh-block"])
    def test_a_lookup_that_asks_nothing_clones_nothing(
            self, dbs, paper_doc, builds, clones, query):
        # An exact-pin block lookup served from a cached copy, as a user
        # poses it: the walk decides the pins by set and the slot-free
        # freshness bound with the template's check.
        schema = _schema(paper_doc)
        dbs["top"].store_fragment(
            run_qeg(dbs["oak"], _compile(BLOCK, schema)).answer)
        block = dbs["top"].find(OAKLAND + (("block", "1"),))
        block.set("timestamp", "995.0")
        assert block.get("status") == "complete"
        bound = _bound(query, schema, builds)
        result = run_qeg(dbs["top"], bound, now=1000.0, ships=False)
        assert result.is_complete and result.matches == [block]
        assert bound.anchor == _compile(query, schema).anchor
        assert clones == []

    @pytest.mark.parametrize("query", [BLOCK, AVAILABLE, QUERIES["or-pin"]],
                             ids=["block", "available", "or-pin"])
    def test_an_asking_walk_renders_the_naive_ask_texts(
            self, dbs, paper_doc, builds, clones, query):
        schema = _schema(paper_doc)
        bound = _bound(query, schema, builds)
        asked = run_qeg(dbs["top"], bound, now=1000.0).subqueries
        assert asked and clones  # the asks read the bound literals
        assert [sq.query for sq in asked] == \
            [sq.query for sq in run_qeg(dbs["top"], _compile(query, schema),
                                        now=1000.0).subqueries]


class TestOneTemplatePerShape:
    def test_texts_of_one_shape_share_a_template(self, paper_schema,
                                                 builds):
        first = compile_pattern(BLOCK, schema=paper_schema)
        other = compile_pattern(
            PREFIX.replace("Pittsburgh", "Etna")
            + "/neighborhood[@id='Riverfront']/block[@id='3']",
            schema=paper_schema)
        assert builds == [BLOCK]
        assert [item.pinned_ids for item in other.items][-2:] == \
            [{"Riverfront"}, {"3"}]
        assert first is not other

    def test_different_shapes_build_their_own(self, paper_schema, builds):
        compile_pattern(BLOCK, schema=paper_schema)
        compile_pattern(AVAILABLE, schema=paper_schema)
        assert builds == [BLOCK, AVAILABLE]


class TestConsistencyOnABoundPattern:
    """A bound consistency predicate asks for a stale cached copy and
    answers from a fresh one, like the naive compile."""

    @pytest.mark.parametrize("timestamp, expect_ask",
                             [(995.0, False), (900.0, True)])
    def test_stale_cache_asks_fresh_cache_answers(
            self, dbs, paper_doc, builds, timestamp, expect_ask):
        schema = HierarchySchema.from_document(paper_doc)
        remote = run_qeg(dbs["oak"], _compile(
            PREFIX + "/neighborhood[@id='Oakland']", schema))
        dbs["top"].store_fragment(remote.answer)
        dbs["top"].find(OAKLAND).set("timestamp", repr(timestamp))

        query = CONSISTENCY
        bound = _bound(query, schema, builds)
        walked = _walk(dbs["top"], bound)
        assert bool(walked[1]) == expect_ask
        assert walked == _walk(dbs["top"], _compile(query, schema))


class TestBoundClonesOwnTheirChecks:
    """Texts of one shape that differ only in a literal: each bound
    pattern decides with checks compiled from its own literals, never
    the template's closures, also when the memo evicted it and the text
    is bound again."""

    @staticmethod
    def _answer(cluster, query):
        results, _site, outcome = cluster.query(query)
        assert outcome.complete
        return answer_set(results)

    @staticmethod
    def _reference(query):
        return answer_set(Evaluator().evaluate(
            parse(query), parse_fragment(PAPER_DOCUMENT), now=0.0))

    def test_yes_then_no_on_one_cluster(self, builds, monkeypatch):
        cluster = Cluster(parse_fragment(PAPER_DOCUMENT),
                          PartitionPlan(PAPER_PLAN))
        yes, no = AVAILABLE, AVAILABLE.replace("'yes'", "'no'")
        binds = []
        original = CompiledPattern.bind

        def counting(pattern, values):
            binds.append(tuple(values))
            return original(pattern, values)

        monkeypatch.setattr(CompiledPattern, "bind", counting)
        assert self._reference(yes) and self._reference(no)
        assert self._reference(yes) != self._reference(no)
        for query in (yes, no):
            assert self._answer(cluster, query) == self._reference(query)
        assert builds == [yes]  # one template serves both texts

        # Evict both texts and their template: each is bound again.
        memo = cluster.schema.compiled_patterns
        monkeypatch.setattr(memo, "max_entries", 2)
        compile_pattern(BLOCK, cluster.schema)
        assert yes not in memo and no not in memo
        bound = len(binds)
        for query in (no, yes, no):
            assert self._answer(cluster, query) == self._reference(query)
        assert len(binds) > bound
        assert len(builds) > 1
