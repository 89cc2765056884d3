"""Query-based consistency end to end: the last QEG walk is the answer.

A cached copy too old for its bound is asked for again, once per parent
for a step with no id pin; what the owner's reply carries is vouched for
whatever its age, and what the reply leaves out does not match.
"""

import pytest

from repro.core import PartitionPlan, Subquery, gather
from repro.net import Cluster
from repro.net.messages import UpdateMessage
from repro.xmlkit import Element

from tests.conftest import OAKLAND, PITTSBURGH, SHADYSIDE, id_path

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")
BOUND = "[timestamp() > current-time() - 30]"
OAK_BLOCK = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
SHADY_BLOCK = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
OAK_BLOCK_PATH = OAKLAND + (("block", "1"),)
SHADY_BLOCK_PATH = SHADYSIDE + (("block", "1"),)


@pytest.fixture
def cluster(paper_doc, paper_plan, settable_clock):
    return Cluster(paper_doc, paper_plan, clock=settable_clock)


def _set_available(cluster, site, space_path, value):
    reply = cluster.agent(site).handle_message(
        UpdateMessage(space_path, values={"available": value},
                      sender="client"))
    assert reply.ok


def _space_ids(results):
    return sorted(result.get("id") for result in results)


def _warm(cluster, block_query, clock):
    """Cache a whole block at ``top``, then let the copy age past the
    bound."""
    _, _, outcome = cluster.query(block_query, at_site="top")
    assert outcome.complete
    clock.advance(100)


def test_a_space_the_owner_no_longer_returns_is_not_served_stale(
        cluster, settable_clock):
    # top's copy of Oakland space 1 says "yes"; the owner's says "no".
    _warm(cluster, OAK_BLOCK, settable_clock)
    _set_available(cluster, "oak", OAK_BLOCK_PATH + (("parkingSpace", "1"),),
                   "no")
    results, _, outcome = cluster.query(
        OAK_BLOCK + "/parkingSpace[available='yes']" + BOUND, at_site="top")
    assert outcome.complete
    assert results == []


def test_a_stale_no_is_asked_again_not_pruned(cluster, settable_clock):
    # top's copy of Oakland space 2 says "no"; the owner's says "yes".
    _warm(cluster, OAK_BLOCK, settable_clock)
    _set_available(cluster, "oak", OAK_BLOCK_PATH + (("parkingSpace", "2"),),
                   "yes")
    results, _, outcome = cluster.query(
        OAK_BLOCK + "/parkingSpace[available='yes']" + BOUND, at_site="top")
    assert outcome.complete
    assert _space_ids(results) == ["1", "2"]
    assert all(result.child("available").text == "yes" for result in results)


@pytest.fixture
def cold_cluster(paper_doc, settable_clock):
    """Root -> city -> neighbourhood sites, nothing cached anywhere."""
    plan = PartitionPlan({
        "root": [id_path("usRegion=NE")],
        "pitt": [PITTSBURGH],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
        "etna": [id_path("usRegion=NE/state=PA/county=Allegheny/city=Etna")],
    })
    return Cluster(paper_doc, plan, clock=settable_clock)


TWO_CITIES = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
              "/city[@id='Pittsburgh' or @id='Etna']"
              "/neighborhood[@id='Oakland']")


def test_a_cold_root_answers_the_first_bounded_query(cold_cluster,
                                                     settable_clock):
    # The city caches the owner's block, whose stamp is older than the
    # bound, and must still pass it on; so must the root.
    settable_clock.advance(10)
    results, site, outcome = cold_cluster.query(
        TWO_CITIES + "/block[@id='1'][timestamp() > current-time() - 5]")
    assert site == "root"
    assert outcome.complete
    [block] = results
    assert _space_ids(block.element_children("parkingSpace")) == ["1", "2"]


def test_a_jittered_bound_costs_one_ask_per_region(cold_cluster,
                                                   settable_clock):
    # 28 s is no bucket boundary, and it goes out as 28 s: each region's
    # reply vouches for what it carries, so nothing is asked twice.
    settable_clock.advance(100)
    results, _, outcome = cold_cluster.query(
        TWO_CITIES + "/block/parkingSpace[timestamp() > current-time() - 28]")
    assert outcome.complete
    assert _space_ids(results) == ["1", "1", "2"]
    assert len(outcome.subqueries_sent) == 2
    assert all("- 28" in ask.query for ask in outcome.subqueries_sent)


def test_k_stale_spaces_of_one_block_cost_one_subquery(cluster,
                                                       settable_clock):
    _warm(cluster, SHADY_BLOCK, settable_clock)
    results, _, outcome = cluster.query(
        SHADY_BLOCK + "/parkingSpace" + BOUND, at_site="top")
    assert _space_ids(results) == ["1", "2"]
    [ask] = outcome.subqueries_sent
    assert ask.reason == Subquery.STALE
    assert ask.anchor_path == SHADY_BLOCK_PATH
    assert ask.consumed == len(SHADY_BLOCK_PATH)


def test_a_parent_holding_owned_data_is_not_asked_for(paper_doc,
                                                      settable_clock):
    # "mine" owns one space of Oakland's block 1 and caches the other:
    # an ask for the block's spaces would come back to "mine" (on TCP,
    # into its own busy handler), so the stale space is asked for alone.
    mine = OAK_BLOCK_PATH + (("parkingSpace", "2"),)
    plan = PartitionPlan({"top": [id_path("usRegion=NE")],
                          "oak": [OAKLAND], "mine": [mine]})
    cluster = Cluster(paper_doc, plan, clock=settable_clock)
    cluster.query(OAK_BLOCK, at_site="mine")
    settable_clock.advance(100)
    results, _, outcome = cluster.query(
        OAK_BLOCK + "/parkingSpace" + BOUND, at_site="mine")
    assert _space_ids(results) == ["1", "2"]
    [ask] = outcome.subqueries_sent
    assert ask.anchor_path == OAK_BLOCK_PATH + (("parkingSpace", "1"),)


def test_the_vouched_set_holds_the_elements_themselves(
        cluster, settable_clock, monkeypatch):
    # Element references, not id()s: an id freed by an eviction
    # mid-gather must not vouch for the node that reuses it.
    seen = []
    run_qeg = gather.run_qeg

    def spy(*args, vouched, **kwargs):
        seen.append(set(vouched))
        return run_qeg(*args, vouched=vouched, **kwargs)

    monkeypatch.setattr(gather, "run_qeg", spy)
    _warm(cluster, SHADY_BLOCK, settable_clock)
    seen.clear()
    cluster.query(SHADY_BLOCK + "/parkingSpace" + BOUND, at_site="top")
    assert seen[0] == set()
    assert len(seen[-1]) >= 2
    assert all(isinstance(node, Element) for node in seen[-1])
