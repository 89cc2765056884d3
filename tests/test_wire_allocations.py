"""An allocation budget for the wire path: counts only, no timing.

A node crossing the wire is allocated at most once on the sending site
(by the answer builder; never, when the owner holds the region whole
and lends the stored subtree) and once on the receiving site (by the
parser).  So one cold query over sockets copies no node with
``Element.copy``, sizing a received message serializes nothing, and
the size a decoded message reports is the length of the frame that
carried it.

And a node the engine builds only to ship or merge is released by its
one owner: no query leaves an ``Element`` for the cycle collector.
"""

import gc
import threading

import pytest

import repro.core.answer as answer_module
from repro.arch import hierarchical
from repro.core import Status, get_status, render_id_path_query
from repro.net import Cluster, QueryMessage
from repro.net import messages as messages_module
from repro.net import tcpruntime as tcp_module
from repro.net.framing import FrameReader
from repro.net.messages import Message
from repro.net.tcpruntime import TcpCluster
from repro.service import ParkingConfig, build_parking_document, type3_query
from repro.service.parking import block_path
from repro.xmlkit import Element, serialize


class _Probe:
    """Counting wrappers around the entry points the budget is stated
    in (the names ``benchmarks/layers/spans.py`` patches too)."""

    def __init__(self, monkeypatch):
        self.copies = 0
        self.serializes = 0
        self.receiver_serializes = []
        self.frames = []
        self.decoded = []
        self._encoding = threading.local()
        self._lock = threading.Lock()
        probe = self
        copy, decode, encode = Element.copy, Message.decode, Message.encode
        plain_serialize = messages_module.serialize

        def counted_copy(element):
            with probe._lock:
                probe.copies += 1
            return copy(element)

        def counted_serialize(node, *args, **kwargs):
            message = getattr(probe._encoding, "message", None)
            with probe._lock:
                probe.serializes += 1
                if any(message is received
                       for received, _text in probe.decoded):
                    probe.receiver_serializes.append(message)
            return plain_serialize(node, *args, **kwargs)

        def tracked_encode(message):
            probe._encoding.message = message
            try:
                return encode(message)
            finally:
                probe._encoding.message = None

        def tracked_decode(text):
            message = decode(text)
            with probe._lock:
                probe.decoded.append((message, text))
            return message

        def framed(receive):
            def wrapper(*args, **kwargs):
                payload = receive(*args, **kwargs)
                if payload:
                    with probe._lock:
                        probe.frames.append(len(payload))
                return payload
            return wrapper

        monkeypatch.setattr(Element, "copy", counted_copy)
        monkeypatch.setattr(messages_module, "serialize", counted_serialize)
        monkeypatch.setattr(Message, "encode", tracked_encode)
        monkeypatch.setattr(Message, "decode", staticmethod(tracked_decode))
        monkeypatch.setattr(tcp_module, "recv_framed",
                            framed(tcp_module.recv_framed))
        monkeypatch.setattr(FrameReader, "recv_frame",
                            framed(FrameReader.recv_frame))


@pytest.fixture
def deployment():
    config = ParkingConfig.tiny()
    city = config.city_names()[0]
    first, second = config.neighborhood_names()[:2]
    query = type3_query(config, city, first, second, "1")
    return (build_parking_document(config), hierarchical(config, 7).plan,
            query)


def _answer(results):
    return sorted(serialize(result, use_cache=False) for result in results)


def test_one_cold_query_over_sockets_allocates_like_loopback(
        deployment, monkeypatch):
    document, plan, query = deployment
    loopback = Cluster(document.copy(), plan)
    with TcpCluster(document.copy(), plan) as tcp:
        # Byte accounting on: every received reply is sized.
        assert tcp.network.traffic.count_bytes

        with monkeypatch.context() as patch:
            on_loopback = _Probe(patch)
            expected, _site, outcome = loopback.query(query)
        assert outcome.used_remote_data and len(expected) == 2

        with monkeypatch.context() as patch:
            on_sockets = _Probe(patch)
            results, _site, outcome = tcp.cluster.query(query)
            sizes = [message.encoded_size()
                     for message, _text in on_sockets.decoded]
            serializes = on_sockets.serializes
        assert outcome.used_remote_data
        assert _answer(results) == _answer(expected)

    # Both owners hold their blocks whole: the replies lend them.
    assert on_sockets.copies == 0 <= on_loopback.copies
    # Two subqueries: a request and a reply each, serialized once where
    # they were built and never where they were received.
    assert len(on_sockets.decoded) == 4
    assert serializes == 4
    assert on_sockets.receiver_serializes == []
    assert sorted(sizes) == sorted(on_sockets.frames)
    assert sizes == [len(text) for _message, text in on_sockets.decoded]


#: Cold type-3 asks on ``paper_small``, posed through the message layer
#: as a client would: each pair of blocks is new to the deployment, so
#: every one is a full gather from remote owners.
_COLD_ASKS = [("Pittsburgh", "Oakland", "Shadyside", "1"),
              ("Pittsburgh", "Shadyside", "Downtown", "2"),
              ("Philadelphia", "Oakland", "Shadyside", "3"),
              ("Philadelphia", "Downtown", "Oakland", "4")]


def _garbage_elements(pose):
    """How many ``Element`` objects only the cycle collector freed
    while *pose* ran."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        pose()
        gc.collect()
        return sum(1 for found in gc.garbage if isinstance(found, Element))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_cold_queries_leave_no_elements_for_the_cycle_collector(transport):
    config = ParkingConfig.paper_small()
    document = build_parking_document(config)
    plan = hierarchical(config).plan
    queries = [type3_query(config, *ask) for ask in _COLD_ASKS]
    held = []

    def pose(cluster):
        for query in queries:
            results, _site = cluster.query_via_messages(query)
            held.append(results)

    if transport == "tcp":
        with TcpCluster(document, plan) as tcp:
            garbage = _garbage_elements(lambda: pose(tcp.cluster))
    else:
        cluster = Cluster(document, plan)
        garbage = _garbage_elements(lambda: pose(cluster))

    assert len(held) == len(queries) and all(held)
    assert garbage == 0


def _live_elements():
    return sum(1 for found in gc.get_objects() if isinstance(found, Element))


def _block_replies(count):
    """A ``paper_small`` loopback cluster, a city's first neighbourhood's
    first *count* block paths, their owner and the root's site."""
    config = ParkingConfig.paper_small()
    cluster = Cluster(build_parking_document(config),
                      hierarchical(config).plan)
    city = config.city_names()[0]
    blocks = [block_path(config, city, config.neighborhood_names()[0], block)
              for block in config.block_ids()[:count]]
    return cluster, blocks, cluster.owner_map[blocks[0]]


def _ask(cluster, owner, block):
    """*owner*'s reply to a fetch of *block*, handed over on loopback."""
    return cluster.network.request(
        "client", owner, QueryMessage(render_id_path_query(block))).fragment


def test_a_first_time_block_merge_builds_no_element():
    cluster, (first, second), owner = _block_replies(2)
    database = cluster.database(cluster.owner_map[first[:1]])
    # Block 2's reply brings the neighbourhood's ID information, so the
    # site holds block 1 as an ID stub.
    database.store_fragment(_ask(cluster, owner, second), handed_over=True)
    assert get_status(database.find(first)) is Status.INCOMPLETE
    reply = _ask(cluster, owner, first)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_elements()
        database.store_fragment(reply, handed_over=True)
        built = _live_elements() - before
    finally:
        if enabled:
            gc.enable()
    assert get_status(database.find(first)) is Status.COMPLETE
    assert database.find(first).size() == 81
    assert built == 0  # the spaces move in whole: no stub is grafted


def test_a_one_block_hand_over_copies_only_the_lent_block(monkeypatch):
    cluster, [block], owner = _block_replies(1)
    copied = []
    copy = answer_module.copy_subtree

    def counted(node, *args, **kwargs):
        clone = copy(node, *args, **kwargs)
        copied.append(clone.size())
        return clone

    monkeypatch.setattr(answer_module, "copy_subtree", counted)
    fragment = _ask(cluster, owner, block)
    assert fragment.size() == 108
    assert copied == [81]  # the lent block; the skeleton is the reply's
