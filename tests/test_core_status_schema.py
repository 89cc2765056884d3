"""Unit tests for status tags and the hierarchy schema."""

import pytest

from repro.core import (
    CoreError,
    HierarchySchema,
    Status,
    get_status,
    get_timestamp,
    set_status,
    set_timestamp,
)
from repro.core.status import clean_copy, parse_status
from repro.xmlkit import Element, parse_fragment


class TestStatus:
    def test_ranks_ordered(self):
        assert Status.OWNED.rank > Status.COMPLETE.rank > \
            Status.ID_COMPLETE.rank > Status.INCOMPLETE.rank

    def test_local_information_property(self):
        assert Status.OWNED.has_local_information
        assert Status.COMPLETE.has_local_information
        assert not Status.ID_COMPLETE.has_local_information
        assert not Status.INCOMPLETE.has_local_information

    def test_id_information_property(self):
        assert Status.ID_COMPLETE.has_id_information
        assert not Status.INCOMPLETE.has_id_information

    def test_set_get_roundtrip(self):
        element = Element("a")
        set_status(element, Status.ID_COMPLETE)
        assert element.get("status") == "id-complete"
        assert get_status(element) is Status.ID_COMPLETE

    def test_default_is_incomplete(self):
        assert get_status(Element("a")) is Status.INCOMPLETE

    def test_parse_rejects_junk(self):
        with pytest.raises(CoreError):
            parse_status("half-done")

    def test_parse_round_trips_every_value(self):
        for status in Status:
            assert parse_status(status.value) is status

    @pytest.mark.parametrize("junk", ["", "Owned", None, []])
    def test_parse_raises_core_error_on_any_junk(self, junk):
        # A dict lookup underneath: neither its KeyError nor the
        # TypeError of an unhashable value may escape.
        with pytest.raises(CoreError, match="invalid status"):
            parse_status(junk)

    def test_timestamps(self):
        element = Element("a")
        assert get_timestamp(element) is None
        set_timestamp(element, 12.5)
        assert get_timestamp(element) == 12.5

    def test_strip_internal(self):
        source = parse_fragment(
            "<a status='owned' timestamp='1'><b status='complete'/>x</a>")
        root = clean_copy(source)
        assert root.get("status") is None
        assert root.child("b").get("status") is None
        # Timestamps are queryable data, not internal bookkeeping.
        assert root.get("timestamp") == "1"
        assert root.text == "x"
        # A copy: the source keeps its bookkeeping.
        assert source.child("b").get("status") == "complete"


class TestSchema:
    def test_from_document(self, paper_doc):
        schema = HierarchySchema.from_document(paper_doc)
        assert schema.root_tag == "usRegion"
        assert schema.is_idable_tag("parkingSpace")
        assert not schema.is_idable_tag("available-spaces")
        assert schema.children_of("neighborhood") == {"block"}

    def test_descendant_tags(self, paper_schema):
        assert paper_schema.descendant_idable_tags("city") == \
            {"city", "neighborhood", "block", "parkingSpace"}
        assert paper_schema.descendant_idable_tags(
            "city", include_self=False) == \
            {"neighborhood", "block", "parkingSpace"}

    def test_local_info_required_expansion(self, paper_schema):
        """Section 3.5's example: .../block requires {block, parkingSpace}."""
        assert paper_schema.local_info_required({"block"}) == \
            {"block", "parkingSpace"}
        assert paper_schema.local_info_required({"parkingSpace"}) == \
            {"parkingSpace"}

    def test_local_info_required_wildcard(self, paper_schema):
        assert paper_schema.local_info_required({"*"}) == \
            paper_schema.idable_tags

    def test_register_and_retire(self):
        schema = HierarchySchema("root", {"root": {"a"}})
        schema.register_child("a", "b")
        assert schema.is_idable_tag("b")
        schema.retire("b")
        assert not schema.is_idable_tag("b")
        assert "b" not in schema.children_of("a")

    def test_explicit_construction(self):
        schema = HierarchySchema("r", {"r": {"x", "y"}, "x": {"z"}})
        assert schema.descendant_idable_tags("r") == {"r", "x", "y", "z"}

    def test_cycle_safe(self):
        schema = HierarchySchema("r", {"r": {"r"}})  # degenerate recursion
        assert schema.descendant_idable_tags("r") == {"r"}
