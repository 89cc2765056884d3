"""An answer fragment is built only where it ships.

The QEG walk records what the generalized fragment includes; the
fragment is materialized when a replying site reads it.  The user's own
site re-extracts its answer from the merged database and never builds
one, and the results it hands back share nothing with that database.
"""

import pytest

from repro.core import (
    AnswerBuilder,
    CoreError,
    PartitionPlan,
    render_id_path_query,
    run_qeg,
)
from repro.net import Cluster
from repro.net.tcpruntime import TcpCluster
from repro.xmlkit import serialize

from tests.conftest import (
    FIGURE2_QUERY,
    OAKLAND,
    PITTSBURGH,
    SHADYSIDE,
    id_path,
)


@pytest.fixture
def builds(monkeypatch):
    """The site of every :meth:`AnswerBuilder.build` call, in order."""
    sites = []
    original = AnswerBuilder.build

    def counting(builder):
        sites.append(builder.database.site_id)
        return original(builder)

    monkeypatch.setattr(AnswerBuilder, "build", counting)
    return sites


#: Every block of Pittsburgh: asked at ``top``, answered by ``oak`` and
#: ``shady`` once, then from ``top``'s cache.
WARM_QUERY = render_id_path_query(PITTSBURGH) + "/neighborhood/block"


def _serialized(results):
    return [serialize(node, use_cache=False) for node in results]


def test_a_warm_query_builds_no_fragment(paper_cluster, builds):
    cold, site, outcome = paper_cluster.query(WARM_QUERY)
    assert outcome.subqueries_sent
    assert sorted(builds) == ["oak", "shady"]  # not the asker
    del builds[:]
    warm, _site, outcome = paper_cluster.query(WARM_QUERY)
    assert not outcome.subqueries_sent  # zero messages
    assert builds == []
    assert cold and _serialized(warm) == _serialized(cold)


def test_a_served_subquery_builds_once_whatever_its_rounds(paper_doc,
                                                           builds):
    """``pitt`` serves the root's ask in two rounds of its own gather
    (it asks ``oak`` and ``shady`` first) and builds its reply once."""
    cluster = Cluster(paper_doc, PartitionPlan({
        "root": [id_path("usRegion=NE")],
        "pitt": [PITTSBURGH],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
    }))
    results, outcome = cluster.agents["root"].answer_user_query(
        FIGURE2_QUERY)
    assert len(results) == 3 and outcome.complete
    assert cluster.agents["pitt"].driver.stats["rounds"] == 2
    assert sorted(builds) == ["oak", "pitt", "shady"]


def test_build_after_the_database_changed_raises(paper_cluster):
    database = paper_cluster.database("oak")
    result = run_qeg(database, render_id_path_query(OAKLAND) + "/block")
    assert not result.subqueries
    database.find(OAKLAND).set("zipcode", "15214")
    with pytest.raises(CoreError, match="changed"):
        result.answer
    builder = AnswerBuilder(database)
    builder.include_local_information(database.find(OAKLAND))
    assert builder.build() is not None
    database.find(OAKLAND + (("block", "1"),)).set("zone", "z")
    with pytest.raises(CoreError, match="changed"):
        builder.build()


def test_user_results_share_nothing_with_the_site_database(paper_doc,
                                                           paper_plan):
    cluster = Cluster(paper_doc.copy(), paper_plan)
    cluster.query(WARM_QUERY)
    results, site, _outcome = cluster.query(WARM_QUERY)
    assert results
    nodes = [node for result in results for node in result.iter()]
    assert all(node._ser_origin is None for node in nodes)
    database = cluster.database(site)
    memos = [(node, dict(node._ser_cache or {}))
             for node in database.root.iter()]
    loopback = _serialized(results)
    for result in results:
        serialize(result)
    assert [(node, dict(node._ser_cache or {})) for node, _ in memos] == \
        memos
    with TcpCluster(paper_doc, paper_plan) as tcp:
        over_tcp, _site = tcp.cluster.query_via_messages(WARM_QUERY)
    assert _serialized(over_tcp) == loopback
