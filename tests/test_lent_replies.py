"""A site ships what it stores: replies lend stored subtrees.

An owner's reply lists a region it holds whole as the stored subtree,
and a site answering a user lists its stored matches; the envelope is
serialized around them inside the serving site's guard.  These tests
pin what that must never cost: the serving databases are left exactly
as they were, a change to the data shows in the next reply (the
serialization memo is version-stamped), and a receiver in the same
process is handed copies, never the serving site's nodes.
"""

import pytest

from repro.arch import hierarchical
from repro.core import find_by_id_path, render_id_path_query
from repro.net import Cluster, OAConfig, QueryMessage
from repro.net.messages import AnswerMessage, UpdateMessage
from repro.net.tcpruntime import TcpCluster
from repro.service import (
    ParkingConfig,
    UpdateWorkload,
    build_parking_document,
    type3_query,
)
from repro.xmlkit import Element, parse_fragment, serialize


def _deployment():
    config = ParkingConfig.tiny()
    return config, build_parking_document(config), hierarchical(config).plan


def _blocks(cluster, count):
    """The id paths of the first *count* owned blocks, with owners."""
    blocks = sorted((path, site) for path, site in cluster.owner_map.items()
                    if path[-1][0] == "block")
    return blocks[:count]


def _snapshot(cluster):
    return {site: serialize(cluster.database(site).root, use_cache=False)
            for site in cluster.sites}


def _statuses(trees):
    return {node.get("status") for tree in trees for node in tree.iter()}


def test_serving_lends_nothing_away_over_sockets():
    config, document, plan = _deployment()
    city = config.city_names()[0]
    first, second = config.neighborhood_names()[:2]
    with TcpCluster(document, plan,
                    oa_config=OAConfig(cache_results=False)) as tcp:
        cluster = tcp.cluster
        before = _snapshot(cluster)
        for _round in range(2):  # the second round is served from memos
            for path, owner in _blocks(cluster, 4):
                query = render_id_path_query(path)
                # A user query its owner answers from its own database:
                # the results are the stored block, lent.
                reply = tcp.network.request(
                    "client", owner, QueryMessage(query, user=True))
                assert len(reply.results) == 1
                assert _statuses(reply.results) == {None}
                # A peer's ask: the fragment lends the stored block.
                reply = tcp.network.request("client", owner,
                                            QueryMessage(query))
                assert find_by_id_path(reply.fragment, path) is not None
            for block in config.block_ids()[:2]:
                results, _site = cluster.query_via_messages(
                    type3_query(config, city, first, second, block))
                assert results and _statuses(results) == {None}
        assert _snapshot(cluster) == before


def test_an_update_shows_in_the_next_fragment_and_results():
    config, document, plan = _deployment()
    now = {"t": 1000.0}
    with TcpCluster(document, plan, clock=lambda: now["t"]) as tcp:
        cluster = tcp.cluster
        space, _values = UpdateWorkload(config, seed=3).sample()
        owner = cluster.owner_map[space]
        block = space[:-1]
        query = render_id_path_query(block)

        def posed():
            fragment = tcp.network.request(
                "client", owner, QueryMessage(query)).fragment
            results = tcp.network.request(
                "client", owner, QueryMessage(query, user=True)).results
            [result] = results
            spot = result.child(space[-1][0], id=space[-1][1])
            return (find_by_id_path(fragment, space).child("price").text,
                    spot.child("price").text)

        first = posed()
        assert posed() == first  # a repeat is served from the memos
        now["t"] += 1.0
        reply = tcp.network.request("client", owner, UpdateMessage(
            space, values={"price": "98765"}, sender="sensor"))
        assert reply.ok
        assert first != ("98765", "98765")
        assert posed() == ("98765", "98765")


@pytest.mark.parametrize("cache_results", [True, False])
def test_a_loopback_reply_shares_no_node_with_the_serving_site(
        cache_results):
    config, document, plan = _deployment()
    cluster = Cluster(document, plan,
                      oa_config=OAConfig(cache_results=cache_results))
    city = config.city_names()[0]
    first, second = config.neighborhood_names()[:2]
    replies = []
    for path, owner in _blocks(cluster, 3):
        query = render_id_path_query(path)
        replies.append(cluster.network.request(
            "client", owner, QueryMessage(query, user=True)).results)
        replies.append([cluster.network.request(
            "client", owner, QueryMessage(query)).fragment])
    for block in config.block_ids()[:2]:
        results, _site = cluster.query_via_messages(
            type3_query(config, city, first, second, block))
        assert results and _statuses(results) == {None}
        replies.append(results)
    stored = {id(node) for site in cluster.sites
              for node in cluster.database(site).root.iter()}
    received = [node for trees in replies for tree in trees
                for node in tree.iter()]
    assert received
    assert not any(id(node) in stored for node in received)


def test_an_envelope_memoizes_its_lent_payloads_only(monkeypatch):
    # The envelope is serialized once and dropped: only the roots of the
    # subtrees it lends -- a fragment, a stored result -- meet the memo.
    fragment = parse_fragment(
        '<r id="R" status="complete"><n id="a" status="owned"><v>1</v>'
        '</n></r>')
    stored = parse_fragment('<block id="1" status="owned"><v>2</v></block>')
    messages = [QueryMessage("/r[@id='R']/n", sender="a"),
                AnswerMessage(7, fragment=fragment),
                AnswerMessage(8, results=[stored])]
    expected = []
    for message in messages:
        envelope = message.to_element()
        expected.append(serialize(envelope, use_cache=False))
        envelope.dispose()
    asked = []
    original = Element.cached_serialization

    def recording(node, key):
        asked.append(node)
        return original(node, key)

    monkeypatch.setattr(Element, "cached_serialization", recording)
    assert [message.encode() for message in messages] == expected
    assert [id(node) for node in asked] == [id(fragment), id(stored)]


def _reachable(root):
    """Every element reachable from *root* through ``children`` and
    ``parent``, by ``id()``."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
            if node.parent is not None:
                stack.append(node.parent)
    return seen


def _shared_nodes(cluster):
    """``(site, site)`` pairs whose databases reach one element."""
    holder, shared = {}, set()
    for site in cluster.sites:
        for key in _reachable(cluster.database(site).root):
            first = holder.setdefault(key, site)
            if first != site:
                shared.add((first, site))
    return shared


def test_no_node_is_shared_after_a_fetch_into_a_stub_and_a_refresh():
    config, document, plan = _deployment()
    now = {"t": 1000.0}
    cluster = Cluster(document, plan, clock=lambda: now["t"])
    city = config.city_names()[0]
    first, second = (
        tuple(path) for path in sorted(
            path for path in cluster.owner_map
            if path[-1][0] == "block" and path[3][1] == city)[:2])
    owner = cluster.owner_map[first]
    receiver = cluster.owner_map[first[:1]]
    assert owner != receiver
    database = cluster.database(receiver)

    # Block 2 brings the neighbourhood's ID information: block 1 is a
    # bare stub at the receiver, and the next fetch fills it.
    cluster.query(render_id_path_query(second), at_site=receiver)
    assert database.find(first).get("status") == "incomplete"
    served = serialize(cluster.database(owner).root, use_cache=False)
    results, _site, outcome = cluster.query(render_id_path_query(first),
                                            at_site=receiver)
    assert results and outcome.used_remote_data
    assert database.find(first).get("status") == "complete"
    assert _shared_nodes(cluster) == set()
    assert serialize(cluster.database(owner).root, use_cache=False) == served

    # A refresh: the owner's newer space replaces the cached copy.
    space = next(path for path in cluster.owner_map
                 if path[:-1] == first)
    now["t"] += 10.0
    assert cluster.network.request("sensor", owner, UpdateMessage(
        space, values={"price": "98765"}, sender="sensor")).ok
    served = serialize(cluster.database(owner).root, use_cache=False)
    now["t"] += 10.0
    refreshed = database.stats["nodes_refreshed"]
    cluster.query(render_id_path_query(first)
                  + "/parkingSpace[timestamp() > current-time() - 5]",
                  at_site=receiver)
    assert database.stats["nodes_refreshed"] > refreshed
    assert database.find(space).child("price").text == "98765"
    assert _shared_nodes(cluster) == set()
    assert serialize(cluster.database(owner).root, use_cache=False) == served


def test_no_node_is_shared_after_a_partial_reply():
    from tests.test_failure_injection import WIDE_VALUES, relay_cluster

    cluster = relay_cluster()
    # Each relay caches what it can reach first, so posing the query at
    # the root changes no database but the root's.
    for zone in ("z0", "z1", "z2"):
        cluster.query(WIDE_VALUES.replace("/zone/", f"/zone[@id='{zone}']/",
                                          1), at_site=f"oa-{zone}")
    served = {site: serialize(cluster.database(site).root, use_cache=False)
              for site in cluster.sites if site != "root"}
    merged = cluster.database("root").stats["fragments_merged"]
    _results, _site, outcome = cluster.query(WIDE_VALUES, at_site="root")
    assert not outcome.complete and outcome.unreachable_paths
    assert cluster.database("root").stats["fragments_merged"] > merged
    assert _shared_nodes(cluster) == set()
    assert {site: serialize(cluster.database(site).root, use_cache=False)
            for site in served} == served
