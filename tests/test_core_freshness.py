"""Query-based consistency end to end: the last QEG walk is the answer.

A cached copy too old for its bound is asked for again where the cold
plan asks -- up through steps with no id pin, to the highest region
holding nothing owned here -- and rendered once per region and walk;
what the owner's reply carries is vouched for whatever its age, and
what the reply leaves out does not match.  So is every other node-level
ask, and a repeated query costs no more than its first posing.
"""

import pytest

from repro.arch import hierarchical
from repro.core import PartitionPlan, Subquery, gather, qeg
from repro.net import Cluster
from repro.net.messages import UpdateMessage
from repro.service import ParkingConfig, build_parking_document, parking
from repro.xmlkit import Element, canonical_form, nodes

from tests.conftest import (
    OAKLAND,
    PITTSBURGH,
    SHADYSIDE,
    id_path,
    three_site_document,
    three_site_plan,
)
from tests.property.test_prop_distributed import _costed

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


def test_a_stale_block_is_rendered_once_per_walk_not_once_per_space(
        cluster, settable_clock, monkeypatch):
    # Both of the block's stale spaces ask at the block; the second ask
    # reuses the first one's text instead of building it again.
    renders = []
    render = qeg.render_id_path_query

    def counting_render(*args, **kwargs):
        renders.append(args[0])
        return render(*args, **kwargs)

    walks = []
    run_qeg = gather.run_qeg

    def spy(*args, **kwargs):
        walks.append(run_qeg(*args, **kwargs))
        return walks[-1]

    _warm(cluster, SHADY_BLOCK, settable_clock)
    monkeypatch.setattr(qeg, "render_id_path_query", counting_render)
    monkeypatch.setattr(gather, "run_qeg", spy)
    results, _, outcome = cluster.query(
        SHADY_BLOCK + "/parkingSpace[available='yes']" + BOUND, at_site="top")
    assert outcome.complete
    [ask] = outcome.subqueries_sent
    assert ask.anchor_path == SHADY_BLOCK_PATH
    assert len(renders) == sum(len(walk.subqueries) for walk in walks) == 1


def test_a_stale_value_is_asked_for_where_its_sensor_would_be():
    # Every sensor cached at ``top`` and aged past the bound: the bound
    # on the value step asks once per group, as the same bound on the
    # sensor step does -- not once per sensor.
    clock = {"now": 1000.0}
    cluster = Cluster(
        three_site_document(lambda group, sensor: 10 * group + sensor),
        three_site_plan(), clock=lambda: clock["now"])
    cluster.query("/region[@id='R']/group/sensor", at_site="top")
    clock["now"] = 1100.0
    bound = "[timestamp() > current-time() - 10]"
    asks, answers = [], []
    for query in (f"/region[@id='R']/group/sensor/value{bound}",
                  f"/region[@id='R']/group/sensor{bound}/value"):
        results, _, outcome = cluster.query(query, at_site="top")
        assert outcome.complete
        asks.append(len(outcome.subqueries_sent))
        answers.append(sorted(result.text for result in results))
    assert asks == [2, 2]
    assert answers[0] == answers[1] == ["0", "1", "10", "11", "12", "2"]


def test_the_walk_reads_idability_off_each_elements_child_index(
        monkeypatch):
    # A non-IDable match's IDable anchor is read off its parent's child
    # index, built at most once per element version: a repeated walk
    # over an unchanged database builds none.
    cluster = Cluster(three_site_document(), three_site_plan())
    cluster.query("/region[@id='R']/group/sensor", at_site="top")
    database = cluster.agents["top"].database
    built = []

    class Counting(nodes.ChildIndex):
        __slots__ = ()

        def __init__(self, version, idable, dups):
            built.append(idable[0].parent)
            super().__init__(version, idable, dups)

    monkeypatch.setattr(nodes, "ChildIndex", Counting)
    for node in database.root.iter():
        node._kid_maps = None  # every index is built afresh
    query = "/region[@id='R']/group/sensor/value"
    assert len(qeg.run_qeg(database, query, now=0.0).matches) == 6
    first = list(built)
    assert first and len(set(map(id, first))) == len(first)
    assert len(qeg.run_qeg(database, query, now=0.0).matches) == 6
    assert built == first


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


def test_a_repeated_city_scan_costs_no_more_than_its_first_posing():
    # Posed at the city's site, each scan asks once per neighbourhood.  A
    # space that failed the predicate arrived as its id alone: a repeat
    # asks for its neighbourhood again, not for it nor for its block.
    config = ParkingConfig.tiny()
    path = parking.city_path(config, config.city_names()[0])
    prefix = "".join(f"/{tag}[@id='{name}']" for tag, name in path)
    costs, answers = {}, set()
    for form in ("/neighborhood/block/", "//"):
        cluster = Cluster(build_parking_document(config),
                          hierarchical(config).plan, count_bytes=True)
        query = prefix + form + "parkingSpace[available='yes']"
        for run in (0, 1):
            (results, _, _), costs[form, run] = _costed(
                cluster, query, at_site=cluster.owner_map[path])
            answers.add(tuple(sorted(map(canonical_form, results))))
        # Messages, asks and bytes.
        assert all(map(int.__le__, costs[form, 1], costs[form, 0])), costs
    assert costs["//", 0][2] <= 2 * costs["/neighborhood/block/", 0][2], costs
    [answer] = answers
    assert answer
