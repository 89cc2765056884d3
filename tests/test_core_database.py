"""Unit tests for the site database: merging, updates, eviction."""

import pytest

from repro.core import (
    AnswerBuilder,
    CacheError,
    CoreError,
    PartitionPlan,
    SensorDatabase,
    Status,
    UnknownNodeError,
    get_status,
    get_timestamp,
    structural_violations,
)
from repro.core.idable import node_id
from repro.xmlkit import Element, parse_fragment, serialize

from tests.conftest import OAKLAND, SHADYSIDE, id_path


@pytest.fixture
def oak_db(paper_doc, settable_clock):
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
    })
    return plan.partition(
        paper_doc, default_clock=settable_clock)[1]["oak"]


@pytest.fixture
def top_db(paper_doc, settable_clock):
    plan = PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
    })
    return plan.partition(
        paper_doc, default_clock=settable_clock)[1]["top"]


class TestConstruction:
    def test_empty(self):
        db = SensorDatabase.empty("usRegion", "NE")
        assert db.root.tag == "usRegion"
        assert get_status(db.root) is Status.INCOMPLETE

    def test_requires_element(self):
        with pytest.raises(CoreError):
            SensorDatabase("not an element")

    def test_bootstrap_statuses(self, oak_db):
        assert get_status(oak_db.find(OAKLAND)) is Status.OWNED
        # Ancestors hold local ID information.
        city = oak_db.find(OAKLAND[:-1])
        assert get_status(city) is Status.ID_COMPLETE
        # Sibling neighborhood appears as a stub (part of city's ID info).
        assert get_status(oak_db.find(SHADYSIDE)) is Status.INCOMPLETE

    def test_bootstrap_structurally_valid(self, oak_db):
        assert structural_violations(oak_db) == []

    def test_owned_paths(self, oak_db):
        owned = oak_db.owned_paths()
        assert OAKLAND in owned
        # The whole owned region: neighborhood + 2 blocks + 3 spaces.
        assert len(owned) == 6


class TestStatusQueries:
    def test_effective_status_climbs(self, oak_db):
        neighborhood = oak_db.find(OAKLAND)
        aggregate = neighborhood.child("available-spaces")
        assert oak_db.effective_status(aggregate) is Status.OWNED

    def test_owns(self, oak_db):
        assert oak_db.owns(oak_db.find(OAKLAND))
        assert not oak_db.owns(oak_db.find(SHADYSIDE))


class TestUpdates:
    def test_apply_update_sets_values_and_timestamp(self, oak_db,
                                                    settable_clock):
        settable_clock.now = 5000.0
        path = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        element = oak_db.apply_update(path, values={"available": "yes"})
        assert element.child("available").text == "yes"
        assert get_timestamp(element) == 5000.0

    def test_apply_update_attributes(self, oak_db):
        element = oak_db.apply_update(OAKLAND, attributes={"zipcode": "999"})
        assert element.get("zipcode") == "999"

    def test_update_creates_missing_value_child(self, oak_db):
        element = oak_db.apply_update(OAKLAND, values={"note": "hi"})
        assert element.child("note").text == "hi"

    def test_update_rejects_non_owned(self, oak_db):
        with pytest.raises(CoreError):
            oak_db.apply_update(SHADYSIDE, values={"x": "1"})

    def test_update_rejects_unknown_node(self, oak_db):
        with pytest.raises(UnknownNodeError):
            oak_db.apply_update(OAKLAND + (("block", "99"),),
                                values={"x": "1"})

    def test_update_cannot_touch_id_or_status(self, oak_db):
        with pytest.raises(CoreError):
            oak_db.apply_update(OAKLAND, attributes={"id": "Hacked"})
        with pytest.raises(CoreError):
            oak_db.apply_update(OAKLAND, attributes={"status": "owned"})

    def test_two_updates_in_one_instant_get_rising_stamps(
            self, oak_db, top_db, settable_clock):
        """A copy of the second version wins the merge against a cached
        copy of the first, though both updates read the same clock."""
        settable_clock.now = 5000.0
        path = OAKLAND + (("block", "1"), ("parkingSpace", "2"))

        def owner_copy():
            builder = AnswerBuilder(oak_db)
            builder.include_local_information(oak_db.find(path))
            return builder.build()

        first = get_timestamp(oak_db.apply_update(
            path, values={"available": "no"}))
        top_db.store_fragment(owner_copy())
        second = get_timestamp(oak_db.apply_update(
            path, values={"available": "yes"}))
        assert first == 5000.0 < second
        top_db.store_fragment(owner_copy())
        assert top_db.find(path).child("available").text == "yes"
        # A pinned stamp (WAL replay) is kept as recorded.
        assert get_timestamp(oak_db.apply_update(
            path, values={"available": "no"}, timestamp=first)) == first

    def test_update_cannot_target_idable_child_value(self, oak_db):
        with pytest.raises(CoreError):
            oak_db.apply_update(OAKLAND, values={"block": "zap"})


class TestStoreFragment:
    def _wire_fragment(self):
        """A fragment as produced by a remote QEG answer for Shadyside."""
        return parse_fragment("""
        <usRegion id='NE' status='id-complete'>
          <state id='PA' status='id-complete'>
            <county id='Allegheny' status='id-complete'>
              <city id='Pittsburgh' status='id-complete'>
                <neighborhood id='Oakland' status='incomplete'/>
                <neighborhood id='Shadyside' status='complete'
                              zipcode='15232' timestamp='2000.0'>
                  <available-spaces>3</available-spaces>
                  <block id='1' status='incomplete'/>
                </neighborhood>
              </city>
            </county>
          </state>
        </usRegion>
        """)

    def test_upgrade_from_stub(self, oak_db):
        assert get_status(oak_db.find(SHADYSIDE)) is Status.INCOMPLETE
        oak_db.store_fragment(self._wire_fragment())
        shady = oak_db.find(SHADYSIDE)
        assert get_status(shady) is Status.COMPLETE
        assert shady.get("zipcode") == "15232"
        assert shady.child("available-spaces").text == "3"
        assert structural_violations(oak_db) == []

    def test_owned_nodes_never_touched(self, oak_db):
        fragment = self._wire_fragment()
        oakland = fragment.child("state").child("county").child("city") \
            .child("neighborhood", id="Oakland")
        oakland.set("status", "complete")
        oakland.set("zipcode", "INTRUDER")
        oakland.set("timestamp", "99999.0")
        oak_db.store_fragment(fragment)
        assert get_status(oak_db.find(OAKLAND)) is Status.OWNED
        assert oak_db.find(OAKLAND).get("zipcode") == "15213"

    def test_newer_timestamp_refreshes(self, oak_db):
        oak_db.store_fragment(self._wire_fragment())
        fresher = self._wire_fragment()
        shady = fresher.child("state").child("county").child("city") \
            .child("neighborhood", id="Shadyside")
        shady.set("timestamp", "3000.0")
        shady.child("available-spaces").set_text("1")
        oak_db.store_fragment(fresher)
        assert oak_db.find(SHADYSIDE).child("available-spaces").text == "1"

    def test_older_timestamp_ignored(self, oak_db):
        oak_db.store_fragment(self._wire_fragment())
        staler = self._wire_fragment()
        shady = staler.child("state").child("county").child("city") \
            .child("neighborhood", id="Shadyside")
        shady.set("timestamp", "1.0")
        shady.child("available-spaces").set_text("9")
        oak_db.store_fragment(staler)
        assert oak_db.find(SHADYSIDE).child("available-spaces").text == "3"

    def test_a_reply_merges_no_stub_the_cache_already_holds(
            self, oak_db, monkeypatch):
        """A refreshed neighbourhood names its blocks again; the bare
        stubs of blocks the cache holds are not visited."""
        def reply(timestamp):
            fragment = self._wire_fragment()
            shady = fragment.child("state").child("county") \
                .child("city").child("neighborhood", id="Shadyside")
            shady.set("timestamp", timestamp)
            shady.extend(Element("block", attrib={"id": f"b{index}",
                                                  "status": "incomplete"})
                         for index in range(12))
            return fragment

        oak_db.store_fragment(reply("2000.0"))
        merged = []
        original = SensorDatabase._merge_node

        def recording(database, target, incoming, *rest):
            merged.append(node_id(incoming))
            return original(database, target, incoming, *rest)

        monkeypatch.setattr(SensorDatabase, "_merge_node", recording)
        carried = oak_db.store_fragment(reply("3000.0"))
        assert [tag for tag, _id in merged if tag == "block"] == []
        assert oak_db.find(SHADYSIDE).get("timestamp") == "3000.0"
        assert carried == [oak_db.find(SHADYSIDE)]
        assert len(list(oak_db.find(SHADYSIDE).element_children(
            "block"))) == 13
        assert oak_db.debug_verify_index() == []

    def test_a_copied_fragment_stays_the_callers(self, oak_db):
        """Content copied out of a fragment keeps no origin link into it:
        the database holds nothing of the caller's tree."""
        fragment = self._wire_fragment()
        serialize(fragment)  # memoized bytes the copies would carry
        oak_db.store_fragment(fragment)
        expected = serialize(oak_db.root, use_cache=False)
        inside = {id(node) for node in fragment.iter()}
        for node in oak_db.root.iter():
            origin = node._ser_origin
            assert origin is None or id(origin[0]) not in inside
        assert serialize(oak_db.root) == expected
        shady = oak_db.find(SHADYSIDE)
        assert shady.child("available-spaces").text == "3"

    def test_root_mismatch_rejected(self, oak_db):
        with pytest.raises(CacheError):
            oak_db.store_fragment(parse_fragment("<other id='X'/>"))

    def test_never_downgrades(self, oak_db):
        oak_db.store_fragment(self._wire_fragment())
        weaker = self._wire_fragment()
        shady = weaker.child("state").child("county").child("city") \
            .child("neighborhood", id="Shadyside")
        shady.set("status", "incomplete")
        for child in list(shady.children):
            shady.remove(child)
        for name in list(shady.attrib):
            if name not in ("id", "status"):
                shady.delete_attribute(name)
        oak_db.store_fragment(weaker)
        assert get_status(oak_db.find(SHADYSIDE)) is Status.COMPLETE


class TestEviction:
    def test_evict_to_stub(self, oak_db):
        oak_db.store_fragment(TestStoreFragment._wire_fragment(None))
        oak_db.evict(SHADYSIDE)
        shady = oak_db.find(SHADYSIDE)
        assert get_status(shady) is Status.INCOMPLETE
        assert shady.children == []
        assert structural_violations(oak_db) == []

    def test_evict_keep_ids_demotes_to_id_complete(self, oak_db):
        oak_db.store_fragment(TestStoreFragment._wire_fragment(None))
        oak_db.evict(SHADYSIDE, keep_ids=True)
        shady = oak_db.find(SHADYSIDE)
        assert get_status(shady) is Status.ID_COMPLETE
        # Child IDs survive, local content does not.
        assert shady.child("block", id="1") is not None
        assert shady.child("available-spaces") is None
        assert structural_violations(oak_db) == []

    def test_cannot_evict_owned(self, oak_db):
        with pytest.raises(CacheError):
            oak_db.evict(OAKLAND)

    def test_cannot_evict_subtree_containing_owned(self, oak_db):
        with pytest.raises(CacheError):
            oak_db.evict(OAKLAND[:-1])  # the city above the owned region


class TestOwnershipMarks:
    def test_release_and_mark(self, oak_db):
        oak_db.release_ownership(OAKLAND + (("block", "2"),))
        assert get_status(
            oak_db.find(OAKLAND + (("block", "2"),))) is Status.COMPLETE
        oak_db.mark_owned(OAKLAND + (("block", "2"),))
        assert get_status(
            oak_db.find(OAKLAND + (("block", "2"),))) is Status.OWNED

    def test_mark_owned_requires_local_info(self, oak_db):
        with pytest.raises(CoreError):
            oak_db.mark_owned(SHADYSIDE)  # only a stub here

    def test_release_requires_owned(self, oak_db):
        with pytest.raises(CoreError):
            oak_db.release_ownership(SHADYSIDE)


def test_describe_mentions_statuses(oak_db):
    text = oak_db.describe()
    assert "[owned]" in text
    assert "neighborhood=Oakland" in text
