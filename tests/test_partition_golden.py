"""Golden partitions: every site's initial fragment, pinned by digest.

The digests are sha256 sums of each site's ``partition_fingerprint``
and of the owner map (in the walk's preorder), taken from the
construction that built one site at a time.  A change to how the plan
carves a document must leave every byte of every site's fragment as it
was: the wire path, the ledger and the recovery tests all read these
fragments.
"""

import hashlib

import pytest

from repro.arch.architectures import hierarchical
from repro.core import PartitionPlan
from repro.durability import partition_fingerprint
from repro.service.parking import (
    ParkingConfig,
    block_path,
    build_parking_document,
    city_path,
    neighborhood_path,
    region_path,
)
from repro.xmlkit import parse_fragment

#: Interleaved IDable and non-IDable children, text on IDable nodes,
#: and two siblings sharing an id (so neither is IDable).
MIXED_DOCUMENT = (
    "<r id='R' kind='root'><meta>m</meta>"
    "<g id='a' x='1'>text-a<s id='1'><v>1</v></s><note>n</note>"
    "<s id='2'><v>2</v></s><d id='x'><v>9</v></d><d id='x'/></g>"
    "<extra id='e'/>"
    "<g id='b'><s id='1'><v>3</v></s></g></r>"
)


def _fixed(when):
    return lambda: when


def _hierarchical(config):
    return build_parking_document(config), hierarchical(config).plan, {}


def _nested():
    """The root's owner also owns a block inside another site's city,
    and a neighbourhood site holds a block owned by a fourth site."""
    config = ParkingConfig.tiny()
    city, other = config.city_names()
    first, second = config.neighborhood_names()
    plan = PartitionPlan({
        "top": [region_path(config), block_path(config, city, second, "2")],
        "pit": [city_path(config, city)],
        "oak": [neighborhood_path(config, city, first)],
        "blk": [block_path(config, city, first, "1")],
        "far": [neighborhood_path(config, other, second)],
    })
    return build_parking_document(config), plan, {"top": _fixed(7.0)}


def _idle_site():
    config = ParkingConfig.tiny()
    city = config.city_names()[0]
    plan = PartitionPlan({
        "top": [region_path(config)],
        "pit": [city_path(config, city)],
        "idle": [],
    })
    return build_parking_document(config), plan, {}


def _mixed():
    plan = PartitionPlan({
        "top": [(("r", "R"),), (("r", "R"), ("g", "b"), ("s", "1"))],
        "ga": [(("r", "R"), ("g", "a"))],
        "s2": [(("r", "R"), ("g", "a"), ("s", "2"))],
        "gb": [(("r", "R"), ("g", "b"))],
        "idle": [],
    })
    return parse_fragment(MIXED_DOCUMENT), plan, {"s2": _fixed(3.5)}


CASES = {
    "tiny-hierarchical": lambda: _hierarchical(ParkingConfig.tiny()),
    "paper-small-hierarchical":
        lambda: _hierarchical(ParkingConfig.paper_small()),
    "nested": _nested,
    "idle-site": _idle_site,
    "mixed": _mixed,
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(owners, databases):
    """``(owner-map digest, {site: fragment digest})``."""
    return (_digest(repr(list(owners.items()))),
            {site: _digest(partition_fingerprint(database))
             for site, database in sorted(databases.items())})


GOLDEN = {
    "idle-site": (
        "6dba6d3ad099a18fb49993421723624de7db80cb86e5b0a8ceb8dd53c22dbd21",
        {
            "idle":
            "29c7687d1ecb3cf65a1dd5c85a727f3e8365429ed61a101a40190ee266fc5082",
            "pit":
            "2bd9a021d46f2724a4daf4f58ff897ea60ccb5335500a16678d5ea7b509bccc5",
            "top":
            "d93a58641e85786e0ebb9ce6f601749e234881a3dcb8f6a461b0f340f9ad4ac7",
        }),
    "mixed": (
        "1886e2242126d5c29caff22ca1518ac740a8c12c41ddbb45f2c88acc9a35ba3f",
        {
            "ga":
            "2c426aa7ec4512030c7a537f65e126563345caa731b93b897f204bb63949800c",
            "gb":
            "fcae1e53e9bad3eade3a83509c6c094dd37ac9e71552237b46b456d52d8620d7",
            "idle":
            "de25a4fba0c58ac08c65b2da220abd8773bf2f8f18e7d71f263d55296a413f99",
            "s2":
            "6bd712f918969888acf6136e27db1e6649b3983f9f9a866d4ba3e45cdaa86ff5",
            "top":
            "a8e7870c07b863e7819c597db0606a3b0f9703d10974cd331ab46c5f38df6bd0",
        }),
    "nested": (
        "e67ad8b8f0816eebd1536816f14adbc360d685a14245c93548a84525872f093f",
        {
            "blk":
            "7b30bfcff35aedeca80bb100d8cd3aed853a0214b79c9dcd5fd7ba84759ceef8",
            "far":
            "6de964a30f4a95f2dc626e18be31b7c2b4850a03eb336be7e9f0540b95d3a263",
            "oak":
            "ce3963e7ef536d97227de613207b72feb857e8f4e008b36bb1694ee22c3fe122",
            "pit":
            "8405fac3f01366d86a02f6e86df44c88f78b9cd9440850f6cdcbad263db303b2",
            "top":
            "302f1a3c4c865aecc284fe95657418b53d20fe1c80bc11569e3c264f12a7318b",
        }),
    "paper-small-hierarchical": (
        "d8c77654e6221b04bb0363fffaeaaf74b77308e469027e21f65e9bb1cd270dc6",
        {
            "site-0":
            "b870db7c55a6f802733fb17aec0fc97239eac7cf63d1360b7c7f6812e4bd6e40",
            "site-1":
            "e14c328104c7d6c516f7ecf807e1e09d2d86b37fd25ca31a2906a5ff844ed62c",
            "site-2":
            "f25e7ead0f5c8ae5875b9317c0ae926c4410beea9c8e37fd0cf8623d2c97ed3b",
            "site-3":
            "7c9f996a2a45778c28c4da4d7509beff27e708188a876375e5166cb2e4231648",
            "site-4":
            "b913aaf0e79516303d0e0babd0e5a90e321247141f5c2e1cb15d9418e5caac20",
            "site-5":
            "4da564ebb498407e422a76abe62c0fc12d9729f0240c4562e06ba7de4e8e3585",
            "site-6":
            "f4b616fff60c07756bc65046ee6dbc87b89d0d4821d6484e52af344a7914f364",
            "site-7":
            "138bcf7458a60fe519d100a9b9af9475252695ac448e4287559ce8547295c8fa",
            "site-8":
            "7b91115afdec5eea1ffa55bf8191b74664d8755d137e27e843d757c3e3b8c1c6",
        }),
    "tiny-hierarchical": (
        "1de785031ac0f2357bd9b064cc86a820712f73abb1f39f46dc3e23ff830def09",
        {
            "site-0":
            "b870db7c55a6f802733fb17aec0fc97239eac7cf63d1360b7c7f6812e4bd6e40",
            "site-1":
            "76aa8d140e992f91320a57a286955e095e121b8a63bcb9d0ee92e3c34a74f516",
            "site-2":
            "70cc7e3dcb6d6c060528d75efdd3778ac4b5eeab6ec1419893b418b7ec8516d0",
            "site-3":
            "1cd7469d47fbd70263ff43bbce2a6be19d9391950b77f458277d74b864738030",
            "site-4":
            "6eb4ee857a94e50f1f896d5d9c05dff02f72cb3396d54cfbe97be57c8881cc86",
            "site-5":
            "e2af220fa46f946dbb914d027cbc525a9ba11552abb7f8e6030de72d6004967b",
            "site-6":
            "6de964a30f4a95f2dc626e18be31b7c2b4850a03eb336be7e9f0540b95d3a263",
            "site-7":
            "29c7687d1ecb3cf65a1dd5c85a727f3e8365429ed61a101a40190ee266fc5082",
            "site-8":
            "29c7687d1ecb3cf65a1dd5c85a727f3e8365429ed61a101a40190ee266fc5082",
        }),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_partition_matches_the_golden_fragments(name):
    root, plan, clocks = CASES[name]()
    owners, databases = plan.partition(
        root, clocks=clocks, default_clock=_fixed(1000.0))
    assert set(databases) == set(plan.assignments)
    owner_digest, site_digests = digests(owners, databases)
    expected_owners, expected_sites = GOLDEN[name]
    assert owner_digest == expected_owners
    assert site_digests == expected_sites
