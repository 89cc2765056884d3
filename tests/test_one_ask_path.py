"""One ask path: the round dispatcher and the serve rule for every envelope.

* A ``no_forward`` ask that is not a path (a scalar, a rollup's fold
  item, or any text the walk cannot compile) gets one structured,
  non-retryable ``ErrorMessage`` for the whole query, on loopback and
  over sockets, and nothing is forwarded on its behalf.
* A group whose owners diverge between retry attempts is regrouped on
  fresh DNS: each new owner gets one exchange, the answer is the
  evaluator's, and ``subqueries_sent`` counts each ask once.
"""

import pytest

from repro.core import PartitionPlan
from repro.net import (
    Cluster,
    ErrorMessage,
    OAConfig,
    QueryMessage,
)
from repro.net.messages import AnswerMessage, Ask
from repro.net.tcpruntime import TcpCluster
from repro.xmlkit import parse_fragment
from repro.xpath.evaluator import Evaluator
from repro.xpath.parser import parse

from tests.conftest import (
    ETNA,
    FIGURE2_QUERY,
    OAKLAND,
    PAPER_DOCUMENT,
    SHADYSIDE,
    id_path,
)
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    answer_set,
    fast_retries,
)

PITTSBURGH_SPACES = ("count(/usRegion[@id='NE']/state[@id='PA']"
                     "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                     "/neighborhood/block/parkingSpace)")


def _unforwardable_asks():
    """The ``no_forward`` asks that are not paths: a scalar, a text
    the walk cannot compile, a fold item, each alone and beside a
    path."""
    return {
        "query-scalar": QueryMessage(PITTSBURGH_SPACES, scalar=True,
                                     no_forward=True, sender="client"),
        "query-text": QueryMessage(PITTSBURGH_SPACES, no_forward=True,
                                   sender="client"),
        "query-user": QueryMessage(PITTSBURGH_SPACES, user=True,
                                   no_forward=True, sender="client"),
        "fold": QueryMessage([Ask(OAK_BLOCK + "/parkingSpace", ".")],
                             no_forward=True, sender="client"),
        "fold-mixed": QueryMessage(
            [OAK_BLOCK, Ask(OAK_BLOCK + "/parkingSpace", ".", 30.0)],
            no_forward=True, sender="client"),
        "items-mixed": QueryMessage([OAK_BLOCK, PITTSBURGH_SPACES],
                                    no_forward=True, sender="client"),
    }


def _assert_refused(reply):
    assert isinstance(reply, ErrorMessage), reply
    assert reply.code == "not-forwardable"
    assert reply.retryable is False
    assert reply.sender == "top"


class TestNoForwardRule:
    @pytest.mark.parametrize("kind", sorted(_unforwardable_asks()))
    def test_loopback_refuses_a_non_path_and_forwards_nothing(self, kind):
        cluster = Cluster(parse_fragment(PAPER_DOCUMENT),
                          PartitionPlan(PAPER_PLAN))
        sent = []
        cluster.network.interceptors.append(
            lambda src, dst, message: sent.append((src, dst)))
        _assert_refused(cluster.network.request(
            "client", "top", _unforwardable_asks()[kind]))
        assert sent == [("client", "top")]
        assert cluster.agent("top").stats["subqueries_sent"] == 0

    @pytest.mark.parametrize("kind", ["query-scalar", "fold"])
    def test_tcp_refuses_a_non_path_the_same_way(self, kind):
        with TcpCluster(parse_fragment(PAPER_DOCUMENT),
                        PartitionPlan(PAPER_PLAN)) as tcp:
            _assert_refused(tcp.network.request(
                "client", "top", _unforwardable_asks()[kind]))
            assert tcp.cluster.agent("top").stats["subqueries_sent"] == 0
            # The site still serves an ordinary user query afterwards.
            results, _, outcome = tcp.cluster.query(OAK_BLOCK,
                                                    at_site="top")
            assert len(results) == 1 and outcome.complete

    def test_user_path_with_no_forward_is_answered_without_forwarding(self):
        cluster = Cluster(parse_fragment(PAPER_DOCUMENT),
                          PartitionPlan(PAPER_PLAN))
        reply = cluster.network.request(
            "client", "top",
            QueryMessage(OAK_BLOCK, user=True, no_forward=True,
                         sender="client"))
        assert isinstance(reply, AnswerMessage)
        assert reply.results is None and reply.left  # oak holds the block
        assert cluster.agent("top").stats["subqueries_sent"] == 0


def _reference(query):
    matches = Evaluator().evaluate(parse(query),
                                   parse_fragment(PAPER_DOCUMENT), now=0.0)
    return answer_set(matches)


class TestOwnersDivergeMidRetry:
    """Oakland and Shadyside share one owner, ``mid``; the first query of
    two items to it fails, and while it is out Oakland moves to ``etna`` and
    Shadyside to ``spare``.  The retry's fresh DNS splits the group."""

    def test_a_diverged_group_is_regrouped_on_fresh_dns(self):
        cluster = Cluster(
            parse_fragment(PAPER_DOCUMENT),
            PartitionPlan({"top": [id_path("usRegion=NE")],
                           "mid": [OAKLAND, SHADYSIDE],
                           "etna": [ETNA], "spare": []}),
            oa_config=OAConfig(retry_policy=fast_retries()))
        exchanges = []

        def migrate_once(src, dst, message):
            if src != "top":
                return
            exchanges.append((dst, len(message.items)))
            if exchanges == [("mid", 2)]:
                cluster.delegate(OAKLAND, "etna")
                cluster.delegate(SHADYSIDE, "spare")
                raise ConnectionError("mid went away mid-ask")

        cluster.network.interceptors.append(migrate_once)
        results, _, outcome = cluster.query(FIGURE2_QUERY, at_site="top")
        assert outcome.complete
        assert answer_set(results) == _reference(FIGURE2_QUERY) != []
        assert exchanges == [("mid", 2), ("etna", 1), ("spare", 1)]
        top = cluster.agent("top")
        assert top.stats["subqueries_sent"] == 2
        assert top.stats["retries"] == 1
        assert top.driver.stats["subqueries_sent"] == 2

