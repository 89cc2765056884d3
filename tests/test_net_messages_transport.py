"""Unit tests for wire messages and the loopback transport."""

import pytest

from repro.net import (
    AckMessage,
    AnswerMessage,
    LoopbackNetwork,
    Message,
    MessageError,
    QueryMessage,
    ReplicateMessage,
    UnknownSite,
    UpdateMessage,
)
from repro.net.messages import Ask, ItemAnswer
from repro.xmlkit import parse_fragment, trees_equal


class TestEncoding:
    def test_query_roundtrip(self):
        message = QueryMessage("/a[@id='1']/b", now=123.5, scalar=True,
                               user=False, sender="site-1")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, QueryMessage)
        assert decoded.query == "/a[@id='1']/b"
        assert decoded.now == 123.5
        assert decoded.scalar is True
        assert decoded.user is False
        assert decoded.sender == "site-1"
        assert decoded.message_id == message.message_id

    def test_query_with_special_characters(self):
        message = QueryMessage("/a[price < 5 and name != \"x&y\"]")
        decoded = Message.decode(message.encode())
        assert decoded.query == "/a[price < 5 and name != \"x&y\"]"

    def test_answer_with_fragment(self):
        fragment = parse_fragment("<a id='1' status='complete'><b/></a>")
        message = AnswerMessage(7, fragment=fragment, sender="s")
        decoded = Message.decode(message.encode())
        assert decoded.in_reply_to == 7
        assert trees_equal(decoded.fragment, fragment)

    def test_answer_with_scalars(self):
        for value in (True, False, 3.5, None):
            decoded = Message.decode(
                AnswerMessage(1, scalar=value).encode())
            assert decoded.scalar == value

    def test_answer_with_results(self):
        results = [parse_fragment("<r id='1'/>"), parse_fragment("<r id='2'/>")]
        decoded = Message.decode(AnswerMessage(1, results=results).encode())
        assert [r.id for r in decoded.results] == ["1", "2"]

    def test_update_roundtrip(self):
        message = UpdateMessage(
            [("a", "1"), ("b", "2")],
            attributes={"zipcode": "15213"},
            values={"available": "yes"},
            sender="sa-1",
        )
        decoded = Message.decode(message.encode())
        assert decoded.id_path == (("a", "1"), ("b", "2"))
        assert decoded.attributes == {"zipcode": "15213"}
        assert decoded.values == {"available": "yes"}

    def test_ack_roundtrip(self):
        decoded = Message.decode(
            AckMessage(9, ok=False, detail="nope").encode())
        assert decoded.in_reply_to == 9
        assert decoded.ok is False
        assert decoded.detail == "nope"

    def test_replicate_roundtrip(self):
        fragment = parse_fragment("<a id='1' status='complete'/>")
        message = ReplicateMessage(fragment, sender="oak")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, ReplicateMessage)
        assert decoded.sender == "oak"
        assert trees_equal(decoded.fragment, fragment)

    def test_multi_item_query_roundtrip(self):
        message = QueryMessage(["/a[@id='1']/b", "/a//spot"], now=42.25,
                               sender="site-3")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, QueryMessage)
        assert decoded.items == [Ask("/a[@id='1']/b"), Ask("/a//spot")]
        assert decoded.query == "/a[@id='1']/b"
        assert decoded.now == 42.25
        assert decoded.sender == "site-3"

    def test_one_item_list_encodes_as_the_text(self):
        assert QueryMessage(["/a"], message_id=1).encode() == \
            QueryMessage("/a", message_id=1).encode()

    def test_query_without_items_rejected(self):
        with pytest.raises(MessageError):
            Message.decode('<message kind="query" id="1" scalar="0" '
                           'user="0"/>')

    def test_multi_item_query_special_characters(self):
        query = "/a[price < 5 and name != \"x&y\"]"
        decoded = Message.decode(
            QueryMessage([query, Ask(query, "@p", 5)]).encode())
        assert decoded.items == [Ask(query), Ask(query, "@p", 5.0)]

    def test_multi_item_answer_roundtrip(self):
        fragment = parse_fragment("<a id='1' status='complete'><b/></a>")
        message = AnswerMessage(11, answers=[
            ItemAnswer("fragment", fragment), ItemAnswer("fragment", None),
            ItemAnswer("fragment", None, ("stale-cache",))],
            sender="site-9")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, AnswerMessage)
        assert decoded.in_reply_to == 11
        assert len(decoded.answers) == 3
        assert trees_equal(decoded.answers[0].value, fragment)
        assert decoded.answers[1] == ("fragment", None, ())
        assert decoded.answers[2] == ("fragment", None, ("stale-cache",))

    def test_an_empty_one_item_answer_is_one_item(self):
        decoded = Message.decode(AnswerMessage(5).encode())
        assert decoded.in_reply_to == 5
        assert decoded.answers == [("fragment", None, ())]

    def test_answer_scalar_none_distinct_from_no_answer(self):
        # Among several items, a remote that *answered* a scalar with
        # None is not the same as a remote that had nothing for an ask.
        decoded = Message.decode(AnswerMessage(1, answers=[
            ItemAnswer("scalar", None), ItemAnswer("fragment", None)])
            .encode())
        assert decoded.answers[0] == ("scalar", None, ())
        assert decoded.answers[1] == ("fragment", None, ())

    def test_unknown_kind_rejected(self):
        with pytest.raises(MessageError):
            Message.decode("<message kind='mystery' id='1'/>")

    def test_encoded_size_positive(self):
        assert QueryMessage("/a").encoded_size() > 0

    def test_message_ids_unique(self):
        a, b = QueryMessage("/a"), QueryMessage("/a")
        assert a.message_id != b.message_id


class _EchoAgent:
    def __init__(self):
        self.seen = []

    def handle_message(self, message):
        self.seen.append(message)
        return AckMessage(message.message_id, ok=True, sender="echo")


class TestLoopback:
    def test_request_delivers_and_replies(self):
        network = LoopbackNetwork()
        agent = _EchoAgent()
        network.register("echo", agent)
        reply = network.request("client", "echo", QueryMessage("/a"))
        assert reply.ok
        assert len(agent.seen) == 1

    def test_unknown_site(self):
        with pytest.raises(UnknownSite):
            LoopbackNetwork().request("a", "ghost", QueryMessage("/a"))

    def test_traffic_counted(self):
        network = LoopbackNetwork(count_bytes=True)
        network.register("echo", _EchoAgent())
        network.request("client", "echo", QueryMessage("/a"))
        summary = network.traffic.summary()
        assert summary["messages"] == 2  # request + reply
        assert summary["bytes"] > 0
        assert ("client", "echo") in summary["links"]

    def test_interceptors_run(self):
        network = LoopbackNetwork()
        network.register("echo", _EchoAgent())
        calls = []
        network.interceptors.append(
            lambda src, dst, m: calls.append((src, dst)))
        network.tell("c", "echo", QueryMessage("/a"))
        assert calls == [("c", "echo")]

    def test_interceptor_can_inject_failures(self):
        network = LoopbackNetwork()
        network.register("echo", _EchoAgent())

        def bomb(src, dst, message):
            raise ConnectionError("link down")

        network.interceptors.append(bomb)
        with pytest.raises(ConnectionError):
            network.request("c", "echo", QueryMessage("/a"))
