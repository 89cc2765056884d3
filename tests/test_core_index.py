"""Unit tests for the id-path index and the serialization memo.

Every database mutator must leave the index *live* (current stamp)
and exactly equal to a from-scratch rebuild; out-of-band tree edits
must be caught by the version stamp and repaired by a lazy rebuild.
"""

import pytest

from repro.core import PartitionPlan, SensorDatabase, Status, get_status
from repro.obs.registry import engine_counters
from repro.xmlkit import parse_fragment, serialize
from repro.xmlkit.serializer import (
    reset_serialization_stats,
    serialization_stats,
)

from tests.conftest import ETNA, OAKLAND, PITTSBURGH, SHADYSIDE, id_path

SHADY_BLOCK = SHADYSIDE + (("block", "1"),)


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
    })
    return plan.partition(
        paper_doc, default_clock=settable_clock)[1]["top"]


def _shady_fragment():
    return parse_fragment("""
    <usRegion id='NE' status='id-complete'>
      <state id='PA' status='id-complete'>
        <county id='Allegheny' status='id-complete'>
          <city id='Pittsburgh' status='id-complete'>
            <neighborhood id='Oakland' status='incomplete'/>
            <neighborhood id='Shadyside' status='complete'
                          zipcode='15232' timestamp='2000.0'>
              <available-spaces>3</available-spaces>
              <block id='1' status='complete' timestamp='2000.0'>
                <parkingSpace id='1' status='complete' timestamp='2000.0'>
                  <available>yes</available>
                </parkingSpace>
              </block>
            </neighborhood>
          </city>
        </county>
      </state>
    </usRegion>
    """)


class TestIndexMaintenance:
    def test_fresh_database_index_consistent(self, oak_db):
        assert oak_db.debug_verify_index(expect_current=False) == []
        oak_db.find(OAKLAND)
        assert oak_db.debug_verify_index() == []

    def test_store_fragment_keeps_index_live(self, oak_db):
        oak_db.store_fragment(_shady_fragment())
        assert oak_db.debug_verify_index() == []
        # The grafted parkingSpace is immediately findable via the index.
        space = oak_db.find(SHADY_BLOCK + (("parkingSpace", "1"),))
        assert space is not None
        assert oak_db.stats["index_hits"] >= 1

    def test_apply_update_keeps_index_live(self, oak_db):
        oak_db.apply_update(OAKLAND, values={"available-spaces": "7"})
        assert oak_db.debug_verify_index() == []

    def test_evict_keeps_index_live(self, oak_db):
        oak_db.store_fragment(_shady_fragment())
        oak_db.evict(SHADYSIDE)
        assert oak_db.debug_verify_index() == []
        # The evicted subtree's descendants are gone from the index too.
        assert oak_db.find(SHADY_BLOCK) is None

    def test_evict_keep_ids_keeps_index_live(self, oak_db):
        oak_db.store_fragment(_shady_fragment())
        oak_db.evict(SHADYSIDE, keep_ids=True)
        assert oak_db.debug_verify_index() == []
        assert get_status(oak_db.find(SHADYSIDE)) is Status.ID_COMPLETE
        # Child stub survives, grandchildren do not.
        assert oak_db.find(SHADY_BLOCK) is not None
        assert oak_db.find(SHADY_BLOCK + (("parkingSpace", "1"),)) is None

    def test_evict_by_degenerate_path_keeps_index_consistent(self, oak_db):
        # A (tag, None) hop resolves through the linear fallback to the
        # id-bearing <state id='PA'> element, so the caller's spelling
        # is not an index key; eviction must unregister descendants
        # under the element's canonical path, not the spelling.
        oak_db.store_fragment(_shady_fragment())
        degenerate = SHADYSIDE[:1] + (("state", None),) + SHADYSIDE[2:]
        oak_db.evict(degenerate)
        assert oak_db.debug_verify_index() == []
        assert oak_db.find(SHADY_BLOCK) is None
        assert oak_db.find(SHADY_BLOCK + (("parkingSpace", "1"),)) is None

    def test_evict_keep_ids_by_degenerate_path(self, oak_db):
        oak_db.store_fragment(_shady_fragment())
        degenerate = SHADYSIDE[:1] + (("state", None),) + SHADYSIDE[2:]
        oak_db.evict(degenerate, keep_ids=True)
        assert oak_db.debug_verify_index() == []
        assert oak_db.find(SHADY_BLOCK) is not None
        assert oak_db.find(SHADY_BLOCK + (("parkingSpace", "1"),)) is None

    def test_evict_all_cached_keeps_index_live(self, oak_db):
        oak_db.store_fragment(_shady_fragment())
        evicted = oak_db.evict_all_cached()
        assert evicted >= 1
        assert oak_db.debug_verify_index() == []

    def test_ownership_transitions_keep_index_live(self, oak_db):
        oak_db.store_fragment(_shady_fragment())
        oak_db.mark_owned(SHADYSIDE)
        assert oak_db.debug_verify_index() == []
        oak_db.release_ownership(SHADYSIDE)
        assert oak_db.debug_verify_index() == []

    def test_out_of_band_mutation_triggers_rebuild(self, oak_db):
        oak_db.find(OAKLAND)  # build the index
        city = oak_db.find(PITTSBURGH)
        # Bypass the database API entirely, as core.evolution does.
        city.append(parse_fragment(
            "<neighborhood id='Squirrel-Hill' status='incomplete'/>"))
        assert oak_db.debug_verify_index() == \
            ["index is stale (rebuild pending)"]
        assert oak_db.debug_verify_index(expect_current=False) == []
        before = oak_db.stats["index_rebuilds"]
        found = oak_db.find(PITTSBURGH + (("neighborhood", "Squirrel-Hill"),))
        assert found is not None
        assert oak_db.stats["index_rebuilds"] == before + 1
        assert oak_db.debug_verify_index() == []

    def test_hit_and_miss_counters(self, oak_db):
        hits = oak_db.stats["index_hits"]
        misses = oak_db.stats["index_misses"]
        assert oak_db.find(OAKLAND) is not None
        assert oak_db.stats["index_hits"] == hits + 1
        assert oak_db.find(OAKLAND + (("block", "99"),)) is None
        assert oak_db.stats["index_misses"] == misses + 1

    def test_degenerate_path_falls_back_to_linear(self, oak_db):
        # A hop without an id cannot use the index, but must still work.
        misses = oak_db.stats["index_misses"]
        hits = oak_db.stats["index_hits"]
        state = oak_db.find((("usRegion", "NE"), ("state", None)))
        assert state is not None and state.tag == "state"
        assert oak_db.stats["index_misses"] == misses
        assert oak_db.stats["index_hits"] == hits

    def test_duplicate_sibling_ids_resolved_linearly(self):
        db = SensorDatabase(parse_fragment(
            "<r id='R' status='owned'>"
            "<a id='X' status='owned'><b id='1' status='owned'/></a>"
            "<a id='X' status='owned'><b id='2' status='owned'/></a>"
            "</r>"
        ))
        # The duplicated (a, X) pair is excluded from the index, so the
        # lookup falls back to the linear walk's first-match semantics.
        found = db.find((("r", "R"), ("a", "X"), ("b", "1")))
        assert found is not None
        assert found.get("id") == "1"

    def test_iter_idable_matches_tree(self, oak_db):
        from repro.core.idable import iter_idable_with_paths
        via_index = list(oak_db.iter_idable())
        via_walk = [e for _, e in iter_idable_with_paths(oak_db.root)]
        assert via_index == via_walk

    def test_owned_paths(self, oak_db):
        from repro.core.idable import iter_idable_with_paths

        def reference():
            return [path for path, element
                    in iter_idable_with_paths(oak_db.root)
                    if get_status(element) is Status.OWNED]

        assert OAKLAND in oak_db.owned_paths()
        assert sorted(oak_db.owned_paths()) == sorted(reference())
        oak_db.store_fragment(_shady_fragment())
        oak_db.mark_owned(SHADYSIDE)
        assert SHADYSIDE in oak_db.owned_paths()
        assert sorted(oak_db.owned_paths()) == sorted(reference())

    def test_describe_uses_index(self, top_db):
        described = top_db.describe()
        assert "Etna" in described
        assert top_db.debug_verify_index() == []
        assert top_db.find(ETNA) is not None


class TestSerializationMemo:
    def test_repeat_serialization_reuses_bytes(self, oak_db):
        reset_serialization_stats()
        first = serialize(oak_db.root)
        cold = serialization_stats()["cache_misses"]
        assert cold > 0
        second = serialize(oak_db.root)
        assert second == first
        stats = serialization_stats()
        assert stats["cache_misses"] == cold  # nothing re-serialized
        assert stats["cache_hits"] >= 1

    def test_mutation_invalidates_only_touched_spine(self, oak_db):
        serialize(oak_db.root)
        oak_db.apply_update(OAKLAND, values={"available-spaces": "7"})
        reset_serialization_stats()
        again = serialize(oak_db.root)
        assert '<available-spaces>7</available-spaces>' in again
        stats = serialization_stats()
        # Only the root-to-Oakland spine re-serializes; siblings
        # (Shadyside, Etna, ...) come straight from the memo.
        assert stats["cache_hits"] >= 1
        assert stats["cache_misses"] < cold_node_count(oak_db.root)

    def test_cached_output_byte_identical_to_uncached(self, oak_db):
        oak_db.apply_update(OAKLAND, attributes={"note": 'x<&"'})
        warm = serialize(oak_db.root)
        assert warm == serialize(oak_db.root, use_cache=False)
        warm_sorted = serialize(oak_db.root, sort_attributes=True)
        assert warm_sorted == serialize(
            oak_db.root, sort_attributes=True, use_cache=False)

    def test_copy_carries_warm_cache(self, oak_db):
        reset_serialization_stats()
        serialize(oak_db.root)
        clone = oak_db.root.copy()
        before = serialization_stats()["cache_misses"]
        assert serialize(clone) == serialize(oak_db.root)
        assert serialization_stats()["cache_misses"] == before

    def test_serializing_a_copy_warms_the_original(self, oak_db):
        # The wire path: answers serialize short-lived copies of db
        # content; the bytes must write back so the next answer from
        # the same content reuses them.
        clone = oak_db.root.copy()
        text = serialize(clone)
        reset_serialization_stats()
        assert serialize(oak_db.root) == text
        assert serialization_stats()["cache_misses"] == 0

    def test_write_back_chains_through_copies_of_copies(self, oak_db):
        # Envelope building can copy an already-copied fragment; the
        # bytes must still reach the database element at the end of
        # the origin chain.
        grandchild_copy = oak_db.root.copy().copy()
        text = serialize(grandchild_copy)
        reset_serialization_stats()
        assert serialize(oak_db.root) == text
        assert serialization_stats()["cache_misses"] == 0

    def test_no_write_back_after_either_side_mutates(self, oak_db):
        clone = oak_db.root.copy()
        oak_db.apply_update(OAKLAND, values={"available-spaces": "1"})
        serialize(clone)  # original mutated since the copy: no write-back
        assert "available-spaces>1<" in serialize(oak_db.root)
        fresh_clone = oak_db.root.copy()
        fresh_clone.set("tainted", "yes")
        serialize(fresh_clone)  # copy mutated: no write-back either
        assert "tainted" not in serialize(oak_db.root)


def cold_node_count(root):
    return sum(1 for _ in root.iter())


class TestEngineCounters:
    def test_collect_engine_counters(self, oak_db, top_db):
        reset_serialization_stats()
        oak_db.find(OAKLAND)
        top_db.find(ETNA)
        serialize(oak_db.root)
        serialize(oak_db.root)
        counters = engine_counters({"oak": oak_db, "top": top_db})
        assert counters["index_hits"] >= 2
        assert counters["index_rebuilds"] >= 2
        assert counters["serialization_reused"] >= 1
        assert 0.0 <= counters["index_hit_ratio"] <= 1.0
        assert 0.0 <= counters["serialization_reuse_ratio"] <= 1.0

    def test_oa_exposes_engine_counters(self, paper_doc):
        from repro.net import Cluster
        plan = PartitionPlan({
            "top": [id_path("usRegion=NE")],
            "oak": [OAKLAND],
        })
        cluster = Cluster(paper_doc, plan)
        agent = cluster.agents["oak"]
        agent.database.find(OAKLAND)
        counters = agent.engine_counters()
        assert counters["index_hits"] >= 1
        assert "serialization" in counters
