"""Unit tests for the answer builder (C1/C2) and subquery rendering."""

from collections import Counter

import pytest

import repro.core.answer as answer_module
import repro.core.idable as idable_module
from repro.core import (
    AnswerBuilder,
    CoreError,
    PartitionPlan,
    Status,
    Subquery,
    fragment_violations,
    get_status,
    render_id_path_query,
    render_residual_query,
)
from repro.core.idable import iter_idable
from repro.core.qeg import compile_pattern
from repro.xmlkit import Element
from repro.xpath import parse

from tests.conftest import OAKLAND, PITTSBURGH, SHADYSIDE, id_path


@pytest.fixture
def oak_db(paper_doc):
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
    })
    return plan.build_databases(paper_doc)["oak"]


class TestAnswerBuilder:
    def test_empty_builder(self, oak_db):
        builder = AnswerBuilder(oak_db)
        assert builder.is_empty
        assert builder.build() is None

    def test_local_information_marked_complete(self, oak_db, paper_doc):
        builder = AnswerBuilder(oak_db)
        builder.include_local_information(oak_db.find(OAKLAND))
        fragment = builder.build()
        shady = fragment
        for tag, identifier in OAKLAND[1:]:
            shady = shady.child(tag, id=identifier)
        assert get_status(shady) is Status.COMPLETE
        assert shady.get("zipcode") == "15213"
        # Block stubs travel as incomplete.
        assert get_status(shady.child("block", id="1")) is Status.INCOMPLETE
        assert fragment_violations(fragment, paper_doc) == []

    def test_ancestors_included_automatically(self, oak_db):
        builder = AnswerBuilder(oak_db)
        builder.include_local_information(oak_db.find(OAKLAND))
        fragment = builder.build()
        assert get_status(fragment) is Status.ID_COMPLETE
        city = fragment.child("state").child("county").child("city")
        assert get_status(city) is Status.ID_COMPLETE
        # C2: the city's ID info lists *all* its neighborhoods.
        assert {c.id for c in city.element_children("neighborhood")} == \
            {"Oakland", "Shadyside"}

    def test_include_subtree(self, oak_db, paper_doc):
        builder = AnswerBuilder(oak_db)
        missing = []
        builder.include_ancestors(oak_db.find(OAKLAND))
        builder.include_subtree(oak_db.find(OAKLAND),
                                on_missing=missing.append)
        fragment = builder.build()
        assert missing == []  # oak owns the whole subtree
        assert fragment_violations(fragment, paper_doc) == []
        node = fragment
        for tag, identifier in OAKLAND[1:]:
            node = node.child(tag, id=identifier)
        space = node.child("block", id="1").child("parkingSpace", id="1")
        assert get_status(space) is Status.COMPLETE

    def test_include_subtree_reports_missing(self, oak_db):
        builder = AnswerBuilder(oak_db)
        missing = []
        # The city node is only id-complete at oak, so the subtree walk
        # stops right there: one fetch of the city covers everything.
        builder.include_subtree(oak_db.find(PITTSBURGH),
                                on_missing=missing.append)
        assert [node.id for node in missing] == ["Pittsburgh"]

    def test_cannot_include_what_sender_lacks(self, oak_db):
        builder = AnswerBuilder(oak_db)
        with pytest.raises(CoreError):
            builder.include_local_information(oak_db.find(SHADYSIDE))

    def test_idempotent_inclusion(self, oak_db):
        builder = AnswerBuilder(oak_db)
        element = oak_db.find(OAKLAND)
        builder.include_local_information(element)
        builder.include_local_information(element)
        fragment = builder.build()
        city = fragment.child("state").child("county").child("city")
        assert len(list(city.element_children("neighborhood"))) == 2


class _CountingBuilder(AnswerBuilder):
    """Counts ``include_id_information`` *bodies*: a call that got past
    the already-included lookup is the one that goes on to call
    ``include_ancestors`` for the same element (nothing else is called
    from inside it with that element)."""

    def __init__(self, database):
        super().__init__(database)
        self.id_calls = 0
        self.id_bodies = Counter()
        self._inside = []

    def include_id_information(self, element):
        self.id_calls += 1
        self._inside.append(element)
        try:
            return super().include_id_information(element)
        finally:
            self._inside.pop()

    def include_ancestors(self, element):
        if self._inside and self._inside[-1] is element:
            self.id_bodies[id(element)] += 1
        return super().include_ancestors(element)


def _chain_with_fan_out(depth=8, held_from=3):
    """A chain ``depth`` levels deep; every chain node also has two
    leaves, one held and one known by ID only.  The site holds ID
    information above level *held_from* and local information below.
    Returns ``(root, node at held_from, deepest chain node)``."""
    root = Element("n", attrib={"id": "c0", "status": "id-complete"})
    node, held = root, None
    for level in range(1, depth + 1):
        status = "owned" if level >= held_from else "id-complete"
        child = Element("n", attrib={"id": f"c{level}", "status": status})
        if level >= held_from:
            child.append(Element("v", text=str(level)))
        node.append(child)
        if level >= held_from:
            leaf = Element("leaf", attrib={"id": "held", "status": "owned"})
            leaf.append(Element("v", text="x"))
            child.append(leaf)
            child.append(Element("leaf", attrib={"id": "far",
                                                 "status": "id-complete"}))
        if level == held_from:
            held = child
        node = child
    return root, held, node


class TestAnswerCostIsLinear:
    """Counts, not times: one inclusion at depth d cost 2^d calls in
    the seed builder (``include_id_information`` and
    ``include_ancestors`` recursed into each other with no memory).
    The ``idable_children`` counts cover the walk that records the
    inclusions *and* the ``build()`` that materializes them."""

    @pytest.fixture
    def idable_calls(self, monkeypatch):
        calls = []
        original = idable_module.idable_children

        def counting(element):
            calls.append(element)
            return original(element)

        # answer.py binds the name at import; non_idable_children
        # reaches it through the idable module.
        monkeypatch.setattr(idable_module, "idable_children", counting)
        monkeypatch.setattr(answer_module, "idable_children", counting)
        return calls

    def test_subtree_inclusion_is_linear_in_nodes_included(
            self, idable_calls):
        _root, held, _deepest = _chain_with_fan_out()
        builder = _CountingBuilder(None)
        missing = []
        builder.include_subtree(held, on_missing=missing.append)
        fragment = builder.build()
        calls = len(idable_calls)
        included = [node for node in iter_idable(fragment)
                    if get_status(node) is not Status.INCOMPLETE]
        # 3 ancestors + 6 chain nodes + 6 held leaves + 6 far leaves.
        assert len(included) == 21
        assert len(missing) == 6
        assert max(builder.id_bodies.values()) == 1
        assert builder.id_calls <= 2 * len(included)
        assert calls <= 3 * len(included)

    def test_repeated_ancestor_inclusion_is_free(self, idable_calls):
        _root, _held, deepest = _chain_with_fan_out()
        builder = _CountingBuilder(None)
        builder.include_ancestors(deepest)
        builder.build()
        assert len(builder.id_bodies) == 8  # c0..c7, once each
        assert len(idable_calls) == 8  # one materialization each
        before = len(idable_calls), builder.id_calls
        builder.include_ancestors(deepest)
        builder.build()
        assert len(idable_calls) == before[0]
        assert builder.id_calls == before[1] + 1
        assert max(builder.id_bodies.values()) == 1


class TestSubqueryRendering:
    def test_id_path_query(self):
        query = render_id_path_query([("a", "1"), ("b", "x")])
        assert query == "/a[@id = '1']/b[@id = 'x']"
        parse(query)  # must be valid XPath

    def test_extra_predicates_attach_to_last_step(self):
        extra = parse("/x[price > 5]").steps[0].predicates
        query = render_id_path_query([("a", "1")], extra)
        assert query == "/a[@id = '1'][price > 5]"

    def test_quotes_in_ids_survive(self):
        query = render_id_path_query([("a", "O'Hara")])
        ast = parse(query)
        from repro.xpath.analysis import extract_id_path

        assert extract_id_path(ast) == [("a", "O'Hara")]

    def test_residual_query(self, paper_schema):
        pattern = compile_pattern(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
            "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
            "/block[@id='1']/parkingSpace[available='yes']",
            schema=paper_schema,
        )
        query = render_residual_query(
            OAKLAND, [], pattern.items[5:])
        assert query.endswith(
            "/block[@id = '1']/parkingSpace[available = 'yes']")

    def test_residual_descendant_gap(self, paper_schema):
        pattern = compile_pattern("/usRegion[@id='NE']//parkingSpace",
                                  schema=paper_schema)
        query = render_residual_query(
            OAKLAND, [], pattern.items[1:], descendant_gap=True)
        assert "//parkingSpace" in query


class TestSubqueryObject:
    def test_equality_by_query(self):
        a = Subquery("/a[@id = '1']", [("a", "1")], Subquery.INCOMPLETE)
        b = Subquery("/a[@id = '1']", [("a", "1")], Subquery.STALE)
        assert a == b
        assert hash(a) == hash(b)
