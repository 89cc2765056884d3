"""Tests for the TCP runtime: the same system over real sockets."""

import socket
import struct
import threading
import time

import pytest

from repro.net import AckMessage, QueryMessage
from repro.net.errors import NetError, UnknownSite
from repro.net.messages import Message
from repro.net.oa import SiteGuard
from repro.net.tcpruntime import (
    MAX_MESSAGE_BYTES,
    TcpCluster,
    TcpNetwork,
    TcpSiteServer,
    recv_framed,
    send_framed,
)

from tests.conftest import FIGURE2_QUERY, OAKLAND

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")


class TestFraming:
    def _pair(self):
        left, right = socket.socketpair()
        return left, right

    def test_roundtrip(self):
        left, right = self._pair()
        try:
            send_framed(left, "hello <wire/>")
            assert recv_framed(right) == "hello <wire/>"
        finally:
            left.close()
            right.close()

    def test_multiple_frames_in_order(self):
        left, right = self._pair()
        try:
            for index in range(5):
                send_framed(left, f"frame-{index}")
            for index in range(5):
                assert recv_framed(right) == f"frame-{index}"
        finally:
            left.close()
            right.close()

    def test_clean_close_returns_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert recv_framed(right) is None
        finally:
            right.close()

    def test_mid_frame_close_raises(self):
        left, right = self._pair()
        try:
            left.sendall(b"\x00\x00\x00\x10abc")  # promises 16, sends 3
            left.close()
            with pytest.raises(NetError):
                recv_framed(right)
        finally:
            right.close()

    def test_unicode_payload(self):
        left, right = self._pair()
        try:
            send_framed(left, "<a v='éü'/>")
            assert recv_framed(right) == "<a v='éü'/>"
        finally:
            left.close()
            right.close()


@pytest.fixture
def tcp_cluster(paper_doc, paper_plan):
    with TcpCluster(paper_doc, paper_plan) as tcp:
        yield tcp


class TestTcpCluster:
    def test_figure2_query_over_sockets(self, tcp_cluster):
        results, site, outcome = tcp_cluster.cluster.query(FIGURE2_QUERY)
        assert len(results) == 3
        assert outcome.used_remote_data
        # Real bytes crossed the wire.
        assert tcp_cluster.network.traffic.bytes > 0

    def test_query_via_messages_over_sockets(self, tcp_cluster):
        results, _site = tcp_cluster.cluster.query_via_messages(
            FIGURE2_QUERY)
        assert len(results) == 3

    @pytest.mark.parametrize("query, expected", [
        (FIGURE2_QUERY, 3),
        (PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
         "/parkingSpace/available/text()", 2),
        (PREFIX + "/neighborhood[@id='Oakland']/block[@id='9']", 0),
    ], ids=["elements", "text", "empty"])
    def test_query_via_messages_answers_like_query(self, tcp_cluster,
                                                   query, expected):
        """Text results used to vanish between ``_fill`` and ``_parse``
        (``[]`` over TCP against two text nodes from ``query``)."""
        from repro.xmlkit import Text, serialize

        def plain(results):
            return [result.value if isinstance(result, Text)
                    else serialize(result, use_cache=False)
                    for result in results]

        direct, site, _outcome = tcp_cluster.cluster.query(query)
        wired, wired_site = tcp_cluster.cluster.query_via_messages(query)
        assert wired_site == site
        assert len(direct) == expected
        assert plain(wired) == plain(direct)

    def test_updates_over_sockets(self, tcp_cluster):
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = tcp_cluster.cluster.add_sensing_agent("sa-tcp", [space])
        sa.network = tcp_cluster.network
        sa.send_update(space, values={"available": "yes"})
        element = tcp_cluster.cluster.database("oak").find(space)
        assert element.child("available").text == "yes"

    def test_migration_over_sockets(self, tcp_cluster):
        block = OAKLAND + (("block", "1"),)
        tcp_cluster.cluster.delegate(block, "etna")
        results, _, _ = tcp_cluster.cluster.query(
            PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"
            "/parkingSpace[available='yes']")
        assert len(results) == 1

    def test_matches_loopback_answers(self, paper_doc, paper_plan):
        from repro.net import Cluster
        from repro.xmlkit import canonical_form

        loop = Cluster(paper_doc.copy(), paper_plan)
        loop_results, _, _ = loop.query(FIGURE2_QUERY)
        with TcpCluster(paper_doc.copy(), paper_plan) as tcp:
            tcp_results, _, _ = tcp.cluster.query(FIGURE2_QUERY)

        def norm(items):
            out = []
            for item in items:
                clone = item.copy()
                for node in clone.iter():
                    node.delete_attribute("timestamp")
                out.append(canonical_form(clone))
            return sorted(out)

        assert norm(loop_results) == norm(tcp_results)

    def test_concurrent_clients_over_sockets(self, tcp_cluster):
        errors = []
        counts = []

        def client():
            try:
                for _ in range(5):
                    results, _, _ = tcp_cluster.cluster.query(
                        PREFIX + "/neighborhood[@id='Oakland']"
                        "/block[@id='1']")
                    counts.append(len(results))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert counts == [1] * 20

    def test_unknown_site_raises(self, tcp_cluster):
        with pytest.raises(UnknownSite):
            tcp_cluster.network.request("x", "ghost", QueryMessage("/a"))

    def test_dead_server_raises_oserror(self, paper_doc, paper_plan):
        tcp = TcpCluster(paper_doc, paper_plan)
        tcp.servers["shady"].stop()
        with pytest.raises(OSError):
            tcp.network.request("x", "shady", QueryMessage("/a"))
        tcp.close()

    def test_closing_an_idle_cluster_is_quick(self):
        from repro.arch import hierarchical
        from repro.service import ParkingConfig, build_parking_document

        config = ParkingConfig.tiny()
        tcp = TcpCluster(build_parking_document(config),
                         hierarchical(config, 7).plan)
        assert len(tcp.servers) == 7
        started = time.perf_counter()
        tcp.close()
        # socketserver's default accept poll made this 0.5 s per site.
        assert time.perf_counter() - started < 1.0


class _AckAgent:
    def __init__(self):
        self.guard = SiteGuard()

    def handle_message(self, message):
        return AckMessage(message.message_id, ok=True, sender="echo")


class _SlowAckAgent(_AckAgent):
    site_id = "echo"  # the shed path names the refusing site

    def __init__(self, delay):
        super().__init__()
        self.delay = delay

    def handle_message(self, message):
        time.sleep(self.delay)
        return super().handle_message(message)


@pytest.fixture
def echo_net():
    server = TcpSiteServer(_AckAgent()).start()
    network = TcpNetwork()
    network.register_address("echo", server.address)
    yield network, server
    network.close()
    server.stop()


class TestServerSafety:
    def test_oversized_frame_answered_then_closed(self, echo_net):
        """A lying length prefix gets a structured non-retryable
        refusal before the connection dies."""
        _network, server = echo_net
        sock = socket.create_connection(server.address)
        try:
            sock.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            reply = Message.decode(recv_framed(sock))
            assert reply.kind == "error"
            assert reply.code == "frame-too-large"
            assert reply.retryable is False
            assert str(MAX_MESSAGE_BYTES + 1) in reply.detail
            # The stream cannot be resynchronised: the server closes.
            assert recv_framed(sock) is None
            assert server.server_stats()["oversized_frames"] == 1
        finally:
            sock.close()

    def test_overload_sheds_with_retryable_error(self):
        server = TcpSiteServer(_SlowAckAgent(0.2), max_pending=2).start()
        network = TcpNetwork()
        network.register_address("echo", server.address)
        messages = [QueryMessage(f"/q{i}") for i in range(8)]
        replies = {}

        def client(message):
            replies[message.message_id] = network.request(
                "c", "echo", message)

        # Eight connections at once: one request holds the site guard,
        # one queues behind it, and the admission gate must shed the
        # rest rather than let them pile up on the guard.
        threads = [threading.Thread(target=client, args=(m,), daemon=True)
                   for m in messages]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert len(replies) == 8
            sheds = [r for r in replies.values() if r.kind == "error"]
            assert sheds, "8 requests past max_pending=2 must shed"
            for request_id, reply in replies.items():
                assert reply.in_reply_to == request_id
            for shed in sheds:
                assert shed.code == "server-overloaded"
                assert shed.retryable is True
            stats = server.server_stats()
            assert stats["overload_rejections"] == len(sheds)
            assert stats["admitted"] == 8 - len(sheds)
            assert stats["max_queue_depth"] <= 2
        finally:
            network.close()
            server.stop()

    def test_drain_sheds_closes_and_settles(self):
        server = TcpSiteServer(_SlowAckAgent(0.0)).start()
        sock = socket.create_connection(server.address)
        try:
            send_framed(sock, QueryMessage("/a").encode())
            assert Message.decode(recv_framed(sock)).ok
            server.begin_drain()
            # The established connection gets a structured, retryable
            # refusal and then loses the connection -- a draining
            # site's pooled sockets must not linger.
            message = QueryMessage("/b")
            send_framed(sock, message.encode())
            reply = Message.decode(recv_framed(sock))
            assert reply.kind == "error"
            assert reply.code == "server-overloaded"
            assert reply.retryable is True
            assert reply.in_reply_to == message.message_id
            assert "draining" in reply.detail
            assert recv_framed(sock) is None
            assert server.wait_drained(timeout=5)
            assert server.server_stats()["drain_rejections"] == 1
        finally:
            sock.close()
            server.stop()


class TestConnectionPool:
    def test_threads_sharing_the_pool_get_their_own_replies(self, echo_net):
        """32 threads, 4 exchanges each, at most 8 pooled sockets."""
        network, _server = echo_net
        errors = []

        def client():
            try:
                for _ in range(4):
                    message = QueryMessage("/q")
                    reply = network.request("c", "echo", message)
                    assert reply.ok
                    assert reply.in_reply_to == message.message_id
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = network.pool_stats
        assert stats["connects"] + stats["reuses"] == 32 * 4
        assert stats["connects"] <= 32
        assert network.idle_connection_count() <= network.max_idle_per_site

    def test_connection_reused_across_requests(self, echo_net):
        network, _server = echo_net
        for _ in range(3):
            reply = network.request("c", "echo", QueryMessage("/a"))
            assert reply.ok
        assert network.pool_stats["connects"] == 1
        assert network.pool_stats["reuses"] == 2
        assert network.idle_connection_count() == 1

    def test_stale_pooled_connection_evicted_on_checkout(self, echo_net):
        network, _server = echo_net
        network.request("c", "echo", QueryMessage("/a"))
        # The peer drops the pooled connection while it sits idle: the
        # checkout liveness probe sees the half-open socket and evicts
        # it instead of handing it out to fail mid-exchange.
        left, right = socket.socketpair()
        right.close()
        network._idle["echo"].append(left)  # stack: checked out next
        reply = network.request("c", "echo", QueryMessage("/a"))
        assert reply.ok
        assert network.pool_stats["stale_evictions"] >= 1
        assert left.fileno() == -1  # really closed, not pooled again

    def test_idle_pool_bounded(self):
        network = TcpNetwork(max_idle_per_site=2)
        pairs = [socket.socketpair() for _ in range(3)]
        try:
            for left, _right in pairs:
                network._checkin("s", left)
            assert network.idle_connection_count() == 2
            assert network.pool_stats["discarded"] == 1
            assert pairs[2][0].fileno() == -1  # really closed
        finally:
            for left, right in pairs:
                for sock in (left, right):
                    try:
                        sock.close()
                    except OSError:
                        pass
            network.close()

    def test_close_drains_pool_and_discards_late_checkins(self, echo_net):
        network, _server = echo_net
        network.request("c", "echo", QueryMessage("/a"))
        assert network.idle_connection_count() == 1
        network.close()
        assert network.idle_connection_count() == 0
        left, right = socket.socketpair()
        network._checkin("echo", left)
        assert network.idle_connection_count() == 0
        assert left.fileno() == -1
        right.close()

    def test_repeated_cluster_start_stop_leaks_no_sockets(self, paper_doc,
                                                          paper_plan):
        import os

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        with TcpCluster(paper_doc.copy(), paper_plan) as tcp:
            tcp.cluster.query(PREFIX + "/neighborhood[@id='Oakland']"
                              "/block[@id='1']")
        baseline = open_fds()
        for _ in range(3):
            with TcpCluster(paper_doc.copy(), paper_plan) as tcp:
                tcp.cluster.query(PREFIX + "/neighborhood[@id='Oakland']"
                                  "/block[@id='1']")
        assert open_fds() <= baseline + 2  # no per-run fd growth
