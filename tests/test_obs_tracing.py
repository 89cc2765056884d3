"""Distributed tracing: spans, wire context, cross-site trees."""

import pytest

from repro.net import Cluster
from repro.net.messages import Message, QueryMessage
from repro.net.tcpruntime import TcpCluster
from repro.obs.tracing import (
    TRACER,
    TraceContext,
    Tracer,
    assemble_trace,
    attach_context,
    disable_tracing,
    enable_tracing,
    propagate,
    to_trace_node,
)
from repro.xmlkit import parse_fragment

from tests.conftest import PAPER_DOCUMENT


@pytest.fixture
def tracing():
    """The shared tracer, enabled and empty, restored afterwards."""
    TRACER.reset()
    enable_tracing()
    yield TRACER
    disable_tracing()
    TRACER.reset()


class TestTraceContext:
    def test_roundtrip(self):
        ctx = TraceContext("t1", "s9")
        assert TraceContext.decode(ctx.encode()) == ctx

    def test_malformed_decodes_to_none(self):
        assert TraceContext.decode("") is None
        assert TraceContext.decode("no-separator") is None
        assert TraceContext.decode(":orphan") is None


class TestSpans:
    def test_nested_spans_parent_link(self, tracing):
        with tracing.span("outer", site="a") as outer:
            with tracing.span("inner", site="a"):
                pass
        spans = {span.name: span for span in tracing.spans()}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer()
        span = tracer.span("anything")
        with span as active:
            assert active.context is None
        assert tracer.spans() == []

    def test_exception_recorded_as_error_tag(self, tracing):
        with pytest.raises(ValueError):
            with tracing.span("doomed", site="a"):
                raise ValueError("boom")
        (span,) = tracing.spans()
        assert "ValueError" in span.tags["error"]

    def test_remote_parent_links_trace(self, tracing):
        with tracing.span("sender", site="a") as sender:
            ctx = sender.context
        with tracing.span("server", site="b", remote_parent=ctx):
            pass
        spans = {span.name: span for span in tracing.spans()}
        assert spans["server"].trace_id == spans["sender"].trace_id
        assert spans["server"].parent_id == spans["sender"].span_id

    def test_ambient_wins_over_remote_parent(self, tracing):
        foreign = TraceContext("other-trace", "other-span")
        with tracing.span("local", site="a") as local:
            with tracing.span("child", site="a", remote_parent=foreign):
                pass
        child = [s for s in tracing.spans() if s.name == "child"][0]
        assert child.trace_id == local.trace_id

    def test_span_cap_drops_not_grows(self):
        tracer = Tracer(max_spans=2).enable()
        for index in range(4):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.stats["dropped"] == 2

    def test_propagate_carries_context_across_threads(self, tracing):
        from repro.core.executors import ThreadedExecutor

        def worker(_item):
            with tracing.span("worker"):
                pass
            return tracing.current_trace_id()

        with tracing.span("parent", site="a") as parent:
            trace_ids = ThreadedExecutor(max_workers=2).map(
                propagate(worker), [1, 2])
        assert set(trace_ids) == {parent.trace_id}


class TestWireContext:
    def test_no_context_by_default(self):
        message = QueryMessage("/a", sender="x")
        assert message.trace_ctx is None
        assert "trace" not in message.encode()

    def test_disabled_tracing_is_byte_identical(self):
        plain = QueryMessage("/a", now=1.0, sender="x",
                             message_id=77).encode()
        TRACER.reset()
        enable_tracing()
        try:
            traced = QueryMessage("/a", now=1.0, sender="x",
                                  message_id=77)
            # No span was attached, so nothing changes on the wire.
            assert traced.encode() == plain
        finally:
            disable_tracing()
            TRACER.reset()

    def test_context_roundtrips_through_codec(self, tracing):
        message = QueryMessage("/a", sender="x")
        with tracing.span("send", site="x") as span:
            attach_context(message, span)
            expected = span.context
        decoded = Message.decode(message.encode())
        assert decoded.trace_ctx == expected

    def test_attach_context_with_null_span_is_noop(self):
        tracer = Tracer()  # disabled
        message = QueryMessage("/a", sender="x")
        attach_context(message, tracer.span("off"))
        assert message.trace_ctx is None


class TestDistributedTraces:
    def test_loopback_query_produces_single_tree(self, paper_cluster,
                                                 tracing):
        query = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Oakland']/block[@id='1']"
                 "/parkingSpace[available='yes']")
        results, _site, _outcome = paper_cluster.query(query)
        assert results
        (trace_id,) = tracing.trace_ids()
        tree = tracing.trace_tree(trace_id)
        assert tree.span.name in ("user-query", "gather")
        assert "oak" in tree.sites_touched()

    def test_three_level_tcp_chain_spans_three_sites(self, tracing):
        from repro.core import PartitionPlan
        from repro.xmlkit import Element

        root = Element("region", attrib={"id": "R"})
        group = Element("group", attrib={"id": "G"})
        sensor = Element("sensor", attrib={"id": "S"})
        sensor.append(Element("value", text="7"))
        group.append(sensor)
        root.append(group)
        plan = PartitionPlan({
            "top": [(("region", "R"),)],
            "mid": [(("region", "R"), ("group", "G"))],
            "leaf": [(("region", "R"), ("group", "G"),
                      ("sensor", "S"))],
        })
        with TcpCluster(root, plan, service="chain") as tcp:
            top = tcp.cluster.agents["top"]
            results, outcome = top.answer_user_query(
                "/region[@id='R']/group[@id='G']/sensor[@id='S']/value")
        assert len(results) == 1 and outcome.complete
        (trace_id,) = tracing.trace_ids()
        spans = tracing.spans(trace_id)
        tree = assemble_trace(spans)
        assert tree.sites_touched() == {"top", "mid", "leaf"}
        # One tree, no orphans: every parent id is a collected span.
        assert tree.span.name != "trace"
        span_ids = {span.span_id for span in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in span_ids
        # The user's query is the root, and each of the two hops is
        # sent as a subquery: top asks mid, mid asks leaf.
        assert (tree.span.name, tree.span.site) == ("user-query", "top")
        assert [n.span.site for n in tree.find_all("send-subquery")] == [
            "top", "mid"]
        # The serve chain hangs under the hop that dispatched it.
        (mid_serve,) = [n for n in tree.find_all("tcp-serve")
                        if n.span.site == "mid"]
        assert mid_serve.find_all("gather")
        assert [n for n in mid_serve.find_all("tcp-serve")
                if n.span.site == "leaf"]

    def test_export_merges_across_tracers(self, tracing):
        # Simulate two processes: a second tracer's export merges with
        # the shared one's into a single tree via the wire context.
        other = Tracer().enable()
        with tracing.span("client", site="a") as client:
            ctx = client.context
        with other.span("server", site="b", remote_parent=ctx):
            pass
        tree = assemble_trace(tracing.export() + other.export())
        assert tree.span.name == "client"
        assert tree.sites_touched() == {"a", "b"}

    def test_to_trace_node_shape(self, tracing):
        with tracing.span("gather", site="hub") as span:
            span.set_tag("request_size", 100)
            with tracing.span("qeg", site="hub"):
                pass
        tree = assemble_trace(tracing.spans())
        node = to_trace_node(tree)
        assert node.site == "hub"
        assert node.request_size == 100
        assert len(node.children) == 1


class TestWireParityUnderLoad:
    def test_cluster_traffic_identical_with_tracing_off(self,
                                                        monkeypatch):
        """Tracing disabled => the same query leaves identical bytes."""
        query = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Oakland']/block[@id='1']"
                 "/parkingSpace[available='yes']")

        def run():
            # Pin the message-id sequence: ids are in the envelopes, so
            # both runs must hand out the same ones to compare bytes.
            import itertools

            from repro.net import messages

            monkeypatch.setattr(messages, "_SEQUENCE",
                                itertools.count(1000))
            from repro.core import PartitionPlan

            from tests.conftest import ETNA, OAKLAND, SHADYSIDE, id_path

            plan = PartitionPlan({
                "top": [id_path("usRegion=NE")],
                "oak": [OAKLAND],
                "shady": [SHADYSIDE],
                "etna": [ETNA],
            })
            cluster = Cluster(parse_fragment(PAPER_DOCUMENT), plan,
                              count_bytes=True)
            cluster.query_via_messages(query, now=0.0)
            return cluster.network.traffic.summary()

        baseline = run()
        # An enable/disable cycle in between must leave no residue.
        TRACER.reset()
        enable_tracing()
        disable_tracing()
        TRACER.reset()
        assert run() == baseline
        assert baseline["bytes"] > 0
