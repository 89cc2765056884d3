"""An allocation budget for the wire path: counts only, no timing.

A node crossing the wire is allocated once on the sending site (by the
answer builder) and once on the receiving site (by the parser).  So one
cold query over sockets may copy no more nodes than the same query on
loopback, sizing a received message serializes nothing, and the size a
decoded message reports is the length of the frame that carried it.
"""

import threading

import pytest

from repro.arch import hierarchical
from repro.net import Cluster
from repro.net import messages as messages_module
from repro.net import tcpruntime as tcp_module
from repro.net.framing import FrameReader
from repro.net.messages import Message
from repro.net.tcpruntime import TcpCluster
from repro.service import ParkingConfig, build_parking_document, type3_query
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

    assert 0 < on_sockets.copies <= on_loopback.copies
    # Two subqueries: a request and a reply each, serialized once where
    # they were built and never where they were received.
    assert len(on_sockets.decoded) == 4
    assert serializes == 4
    assert on_sockets.receiver_serializes == []
    assert sorted(sizes) == sorted(on_sockets.frames)
    assert sizes == [len(text) for _message, text in on_sockets.decoded]
