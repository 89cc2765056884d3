"""Remaining small-unit coverage: traces, stats, architectures, helpers."""

from repro.arch import centralized, hierarchical
from repro.net import AnswerMessage, QueryMessage
from repro.service import ParkingConfig, build_parking_document
from repro.sim import TraceNode

from tests.conftest import FIGURE2_QUERY, OAKLAND


class TestTraceNode:
    def test_messages_counts_request_reply_pairs(self):
        root = TraceNode("a", "query")
        assert root.messages == 2  # request in + reply out
        root.children.append(TraceNode("b", "query"))
        root.children.append(TraceNode("c", "query"))
        assert root.messages == 6  # + two request/reply pairs issued

    def test_total_calls_and_sites(self):
        root = TraceNode("a", "query")
        child = TraceNode("b", "query")
        child.children.append(TraceNode("c", "update"))
        root.children.append(child)
        assert root.total_calls() == 3
        assert root.sites_touched() == {"a", "b", "c"}


class TestArchitectureRouting:
    def test_forced_entry_ignores_query(self, paper_cluster):
        arch = centralized(ParkingConfig.tiny())
        assert arch.entry_site(paper_cluster, FIGURE2_QUERY) == "site-0"

    def test_dns_entry_follows_query(self):
        from repro.net import Cluster

        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        arch = hierarchical(config)
        cluster = Cluster(document, arch.plan)
        from repro.service import type1_query

        query = type1_query(config, "Pittsburgh", "Oakland", "1")
        entry = arch.entry_site(cluster, query)
        site, _ = cluster.route_query(query)
        assert entry == site

    def test_uses_dns_routing_flag(self):
        config = ParkingConfig.tiny()
        assert not centralized(config).uses_dns_routing
        assert hierarchical(config).uses_dns_routing


class TestDriverStats:
    def test_local_hit_accounting(self, paper_cluster):
        agent = paper_cluster.agent("oak")
        query = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Oakland']/block[@id='1']")
        agent.answer_user_query(query)
        assert agent.driver.stats["local_hits"] == 1
        assert agent.driver.stats["queries"] == 1
        assert agent.driver.stats["subqueries_sent"] == 0

    def test_rounds_accumulate(self, paper_cluster):
        agent = paper_cluster.agent("top")
        agent.answer_user_query(FIGURE2_QUERY)
        assert agent.driver.stats["rounds"] >= 1
        assert agent.driver.stats["subqueries_sent"] >= 2


class TestAnswerMessageShapes:
    def test_reply_without_payload_decodes(self):
        from repro.net import Message

        decoded = Message.decode(AnswerMessage(3).encode())
        assert decoded.fragment is None
        assert decoded.scalar is None
        assert decoded.results is None

    def test_query_defaults(self):
        from repro.net import Message

        decoded = Message.decode(QueryMessage("/a").encode())
        assert decoded.now is None
        assert decoded.scalar is False
        assert decoded.user is False


class TestClusterSchemaSharing:
    def test_agents_share_cluster_schema(self, paper_cluster):
        schemas = {id(agent.schema)
                   for agent in paper_cluster.agents.values()}
        assert len(schemas) == 1

    def test_added_node_visible_in_shared_schema(self, paper_cluster):
        paper_cluster.add_node(OAKLAND + (("block", "1"),), "meter", "m1")
        for agent in paper_cluster.agents.values():
            assert agent.schema.is_idable_tag("meter")
