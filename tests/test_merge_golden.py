"""Golden merges: what a site database holds after each merge in a fixed
set, pinned by digest.

Each merge is recorded as the receiver database's serialized bytes
(attribute order and child order included, memo bypassed), the nodes
``store_fragment`` returned as id paths in order, and ``stats``.  The
digests were taken from the merge that grafted a bare ID stub for each
IDable child the receiver lacked and merged into it: a merge that
brings such a child in whole must leave every byte, every carried path
and every counter as that one did.  Every scenario journals its merges,
so each reply is serialized (and memoized) before it is merged: the
database's memoized bytes must then equal its unmemoized ones.

The set: seeded draws from the property suite's fragment specs (each
merged by copy and handed over), hand-written regions (a bare-stub
target; ``incomplete`` and ``id-complete`` nodes inside a moved region;
same-id siblings and id-bearing content; content interleaved with
IDable children; an ``owned`` status that is not the second attribute;
refreshes by timestamp), a sibling-key collision at the target, and
the merges a ``point_cold``-style stream makes: first-time block
replies, unchanged ones and a refreshed one.
"""

import hashlib
import random

import pytest

from repro.arch import hierarchical
from repro.core import SensorDatabase, render_id_path_query
from repro.core.idable import id_path_of
from repro.core.gather import hand_over
from repro.net import Cluster
from repro.service import ParkingConfig, build_parking_document, type3_query
from repro.service.parking import block_path
from repro.xmlkit import parse_fragment, serialize

from tests.property.test_prop_wire_ownership import (
    _LEAVES,
    _MIDS,
    _build_database,
    _wire_fragment,
)


def _digest(database, carried):
    """One merge's record, as a short digest."""
    stored = serialize(database.root, use_cache=False)
    assert serialize(database.root) == stored  # no memo outlived a change
    assert database.debug_verify_index(expect_current=False) == []
    paths = "|".join("/".join(f"{tag}={ident}" for tag, ident
                              in id_path_of(node)) for node in carried)
    stats = ",".join(f"{key}={value}"
                     for key, value in sorted(database.stats.items()))
    record = "\n".join([stored, paths, stats])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()[:16]


def _merge_all(database, fragments, handed_over):
    records = []
    database.journal = records.append
    digests = []
    for fragment in fragments:
        carried = database.store_fragment(fragment, handed_over=handed_over)
        digests.append(_digest(database, carried))
    assert [record["kind"] for record in records] == \
        ["fragment"] * len(fragments)
    return digests


# ----------------------------------------------------------------------
# Seeded draws from the property suite's specs
# ----------------------------------------------------------------------
def _draw_spec(rng):
    """One draw from ``_FRAGMENT_SPECS``' space."""
    spec = []
    for _mid in range(_MIDS):
        if rng.random() < 0.25:
            spec.append(None)
            continue
        spec.append((rng.choice(["complete", "id-complete", "incomplete"]),
                     rng.randint(1, 5),
                     tuple(None if rng.random() < 0.3 else rng.randint(1, 5)
                           for _leaf in range(_LEAVES))))
    return tuple(spec)


def _spec_sequences(seed=59, count=6):
    rng = random.Random(seed)
    return [[_draw_spec(rng) for _ in range(rng.randint(1, 5))]
            for _ in range(count)]


def _specs(index, handed_over):
    specs = _spec_sequences()[index]
    return _merge_all(_build_database(), [_wire_fragment(spec)
                                         for spec in specs], handed_over)


# ----------------------------------------------------------------------
# Hand-written regions
# ----------------------------------------------------------------------
#: A first-time region below a bare-stub root: ``m1`` arrives ``owned``
#: with its status first; its leaves are a ``complete`` one, an
#: ``id-complete`` one carrying content it must drop, and an
#: ``incomplete`` one with an IDable child; same-id siblings and an
#: id-bearing element are content; content and IDable children
#: interleave, and there is loose text.
_REGION = (
    "<top id='R' status='id-complete'>"
    "<mid status='owned' id='m1' zip='z1' timestamp='4.0'>"
    "<leaf id='l0' status='complete' timestamp='2.0'><v>a</v></leaf>"
    "<v>mid value</v>"
    "<leaf id='l1' status='id-complete'>lost text"
    "<sub id='s0' timestamp='1.0' status='owned'><w>x</w></sub>"
    "<junk>dropped</junk></leaf>"
    "<note id='n'>first</note><note id='n'>second</note>"
    "<leaf id='l2' status='incomplete'>"
    "<sub id='s1' status='complete' timestamp='1.5'/></leaf>"
    "<tag><deep id='q'>id-bearing content</deep></tag>"
    "mid text</mid>"
    "<mid id='m2' status='incomplete'/>"
    "<mid id='m3' status='id-complete'><leaf id='l0' status='incomplete'/>"
    "</mid>"
    "</top>")


def _refresh(timestamp, value):
    """``m1`` again at *timestamp*, with new content and one more leaf."""
    return (
        "<top id='R' status='id-complete'>"
        f"<mid id='m1' status='complete' timestamp='{timestamp}' zip='z9'>"
        f"<v>{value}</v>"
        "<leaf id='l0' status='complete' timestamp='2.0'><v>a</v></leaf>"
        "<leaf id='l3' status='owned' timestamp='3.0'><v>new</v></leaf>"
        "</mid></top>")


_REGION_FRAGMENTS = [_REGION,
                     _refresh("4.0", "same stamp"),  # equal strings
                     _refresh("4", "equal instant"),  # equal floats
                     _refresh("5.0", "newer"),
                     _REGION]


def _regions(handed_over):
    database = SensorDatabase.empty("top", "R")
    return _merge_all(database, [parse_fragment(text)
                                 for text in _REGION_FRAGMENTS], handed_over)


def _collision(handed_over):
    """Two stored siblings share ``mid/m9``; a reply brings ``m9``."""
    database = SensorDatabase(parse_fragment(
        "<top id='R' status='id-complete'>"
        "<mid id='m9'>one</mid><mid id='m9'>two</mid>"
        "<mid id='m1' status='incomplete'/></top>"))
    reply = ("<top id='R' status='id-complete'>"
             "<mid id='m9' status='complete' timestamp='1.0'><v>9</v>"
             "<leaf id='l0' status='complete' timestamp='1.0'/></mid>"
             "<mid id='m1' status='complete' timestamp='1.0'>"
             "<leaf id='l0' status='complete' timestamp='1.0'><v>1</v>"
             "</leaf></mid></top>")
    return _merge_all(database, [parse_fragment(reply),
                                 parse_fragment(reply)], handed_over)


# ----------------------------------------------------------------------
# A point_cold-style stream on loopback
# ----------------------------------------------------------------------
def _point_cold():
    """Every merge of a small stream of freshness-bounded type-3 block
    lookups at ``paper_small``: first-time blocks, the same blocks
    again past their bound (unchanged), and one refreshed by an update.
    Each record is the merging site's name and its digest."""
    config = ParkingConfig.paper_small()
    clock = {"now": 1000.0}
    cluster = Cluster(build_parking_document(config),
                      hierarchical(config, n_sites=9).plan,
                      clock=lambda: clock["now"])
    city = config.city_names()[0]
    first, second = config.neighborhood_names()[:2]
    merges = []
    databases = {id(cluster.database(site)): site for site in cluster.sites}
    original = SensorDatabase.store_fragment

    def recording(database, fragment, handed_over=False):
        serialize(fragment)  # as a journal would, before the merge
        carried = original(database, fragment, handed_over=handed_over)
        merges.append(f"{databases[id(database)]}:"
                      f"{_digest(database, carried)}")
        return carried

    bound = "[timestamp() > current-time() - 5]"
    queries = [type3_query(config, city, first, second, block) + bound
               for block in config.block_ids()[:2]]
    SensorDatabase.store_fragment = recording
    try:
        for query in queries * 2:
            clock["now"] += 6.0
            assert cluster.query(query)[0]
        space = block_path(config, city, first, config.block_ids()[0]) \
            + (("parkingSpace", "1"),)
        cluster.database(cluster.owner_map[space]).apply_update(
            space, values={"price": "77"})
        clock["now"] += 6.0
        assert cluster.query(queries[0])[0]
    finally:
        SensorDatabase.store_fragment = original
    return merges


def _point_cold_reply(handed_over):
    """Block replies built by their owner, merged at the root's site:
    block 2's (the neighbourhood's ID information arrives, block 1 as an
    ID stub), block 1's (a first-time block into its stub), and block
    1's again (unchanged)."""
    config = ParkingConfig.paper_small()
    cluster = Cluster(build_parking_document(config),
                      hierarchical(config, n_sites=9).plan,
                      clock=lambda: 1000.0)
    city = config.city_names()[0]
    neighborhood = config.neighborhood_names()[0]
    second, first = (block_path(config, city, neighborhood, block)
                     for block in config.block_ids()[1::-1])
    owner = cluster.owner_map[first]
    receiver = cluster.owner_map[first[:1]]
    fragments = []
    for block in (second, first, first):
        reply = cluster.agents[owner].driver.answer_any(
            render_id_path_query(block))
        fragments.append(hand_over(reply) if handed_over else reply)
    return _merge_all(cluster.database(receiver), fragments, handed_over)


SCENARIOS = {
    **{f"specs-{index}-{way}": (lambda index=index, handed=handed:
                                _specs(index, handed))
       for index in range(6)
       for way, handed in (("copy", False), ("handed", True))},
    "regions-copy": lambda: _regions(False),
    "regions-handed": lambda: _regions(True),
    "collision-copy": lambda: _collision(False),
    "collision-handed": lambda: _collision(True),
    "point-cold-reply-copy": lambda: _point_cold_reply(False),
    "point-cold-reply-handed": lambda: _point_cold_reply(True),
    "point-cold-stream": _point_cold,
}

#: Taken from the stub-graft merge; see the module docstring.
GOLDEN = {
    "collision-copy": [
        "3b5db6aad5081431", "2687d73ad3dc425c",
    ],
    "collision-handed": [
        "3b5db6aad5081431", "2687d73ad3dc425c",
    ],
    "point-cold-reply-copy": [
        "87d3b255391642fd", "7f79878f71d75281", "a130e8738e4e9143",
    ],
    "point-cold-reply-handed": [
        "87d3b255391642fd", "7f79878f71d75281", "a130e8738e4e9143",
    ],
    "point-cold-stream": [
        "site-1:95f9763e551e28de", "site-1:1ba48590d6ea4198",
        "site-1:ec364166baab39b2", "site-1:1edd3d7fc4b8122c",
        "site-1:39242c46b2b0c773", "site-1:2de1547da378350b",
        "site-1:3fdbc0730874187d", "site-1:7eb9fa090df33bbb",
        "site-1:e543ef05f468bc77", "site-1:6ffd52fee6bae25e",
    ],
    "regions-copy": [
        "b6b673d63d8d15c5", "4c6265162ec4646b", "9029ae34309988ab",
        "fbc951b198de927b", "5399e1d31fecb0f5",
    ],
    "regions-handed": [
        "b6b673d63d8d15c5", "4c6265162ec4646b", "9029ae34309988ab",
        "fbc951b198de927b", "5399e1d31fecb0f5",
    ],
    "specs-0-copy": [
        "a5894214def2859d", "f4e63e0b7d0461b8",
    ],
    "specs-0-handed": [
        "a5894214def2859d", "f4e63e0b7d0461b8",
    ],
    "specs-1-copy": [
        "2e885eacbb597c3e", "96f7185e6c0a3c30", "ffa87fcc8f526e7f",
    ],
    "specs-1-handed": [
        "2e885eacbb597c3e", "96f7185e6c0a3c30", "ffa87fcc8f526e7f",
    ],
    "specs-2-copy": [
        "960ddc0a5f90113f", "f91647745d9223af", "ee58592f0c5f0cf7",
    ],
    "specs-2-handed": [
        "960ddc0a5f90113f", "f91647745d9223af", "ee58592f0c5f0cf7",
    ],
    "specs-3-copy": [
        "2ad6a07adf545d68", "b799fe02d9dad702", "7ae4a950cd94e5f2",
        "21dda81ec07d854d",
    ],
    "specs-3-handed": [
        "2ad6a07adf545d68", "b799fe02d9dad702", "7ae4a950cd94e5f2",
        "21dda81ec07d854d",
    ],
    "specs-4-copy": [
        "99884cc631cfafce",
    ],
    "specs-4-handed": [
        "99884cc631cfafce",
    ],
    "specs-5-copy": [
        "749eec6353b0fa61", "11bd9c1f68b3e2cf", "a20baea72aaf319d",
        "b43ede9296f87d01", "f9e977840e8be879",
    ],
    "specs-5-handed": [
        "749eec6353b0fa61", "11bd9c1f68b3e2cf", "a20baea72aaf319d",
        "b43ede9296f87d01", "f9e977840e8be879",
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_merges_match_the_golden_digests(name):
    assert SCENARIOS[name]() == GOLDEN[name]
