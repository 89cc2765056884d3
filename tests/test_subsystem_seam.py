"""The subsystem seam (``repro.net.subsystem``), from the outside.

Two things are pinned here:

* a stub subsystem defined in this file -- one wire kind, every hook --
  sees each hook fire with the documented arguments, on the loopback
  network and over real sockets, without the agent, the cluster, the
  metrics registry or EXPLAIN knowing anything about it;
* each shipped subsystem is really *absent* when its config is not
  passed: the cluster's traffic equals the capture taken before the
  seam existed, and its wire kinds are refused with one structured,
  terminal error.

A shipped subsystem is exercised while its package exists: the
removability drill deletes ``src/repro/agg`` (or ``replication``) and
expects everything else here to keep passing.
"""

import itertools

import pytest

from repro.core import PartitionPlan
from repro.core.database import SensorDatabase
from repro.net import (
    AckMessage,
    Cluster,
    ErrorMessage,
    Message,
    OAConfig,
    TcpCluster,
    UpdateMessage,
)
from repro.net import messages as messages_module
from repro.net.subsystem import CLUSTER_HOOKS, SITE_HOOKS
from repro.xmlkit import parse_fragment

from tests.conftest import FIGURE2_QUERY, OAKLAND, PAPER_DOCUMENT
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    SHADY_BLOCK,
    fast_retries,
)

OAK_BLOCK1 = OAKLAND + (("block", "1"),)
OAK_SPACE = OAK_BLOCK1 + (("parkingSpace", "1"),)


# ----------------------------------------------------------------------
# The stub subsystem
# ----------------------------------------------------------------------
class PingMessage(Message):
    kind = "stub-ping"

    def __init__(self, note="", sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.note = note

    def _fill(self, envelope):
        envelope.set("note", self.note)

    @staticmethod
    def _parse(envelope):
        return {"note": envelope.get("note")}


@pytest.fixture(scope="module", autouse=True)
def stub_kind_registered():
    messages_module.register_kind(PingMessage)
    yield
    del messages_module._KINDS[PingMessage.kind]


class StubSite:
    """Per-agent part: records every hook call with its arguments."""

    name = "stub"

    def __init__(self, agent):
        self.agent = agent
        self.calls = []

    def called(self, hook):
        return [args for name, args in self.calls if name == hook]

    def handlers(self):
        return {PingMessage: self._ping}

    def _ping(self, message):
        self.calls.append(("ping", message.note))
        return AckMessage(message.message_id, ok=True, detail="pong",
                          sender=self.agent.site_id)

    def on_update(self, id_path):
        self.calls.append(("on_update", id_path))

    def on_ownership_change(self, paths, gained, peer):
        self.calls.append(("on_ownership_change",
                           (list(paths), gained, peer)))

    def on_dispatch_failure(self, target, subqueries, attempts, causes):
        self.calls.append(("on_dispatch_failure",
                           (target, list(subqueries), attempts,
                            list(causes))))
        return None

    def try_scalar(self, query, now=None, max_age=None):
        self.calls.append(("try_scalar", (query, now, max_age)))
        return query == "stub:answer", 42.0

    def metrics(self):
        return {"calls": len(self.calls), "flag": True}

    def explain(self, context):
        self.calls.append(("explain", (context.source, context.lca_path)))
        for entry in context.entries:
            entry.setdefault("notes", []).append("stub saw this ask")
        context.add_section(self.name, {"site": context.agent.site_id},
                            [f"stub: explained at {context.agent.site_id}"])

    def flush(self):
        self.calls.append(("flush", ()))

    def close(self, final_checkpoint):
        self.calls.append(("close", final_checkpoint))

    def abort(self):
        self.calls.append(("abort", ()))


class StubCluster:
    """Per-cluster part: same recording, plus a canned site restore."""

    name = "stub"

    def __init__(self, cluster):
        self.cluster = cluster
        self.calls = []
        self.restorable = {}

    def cluster_started(self):
        self.calls.append(("cluster_started", sorted(self.cluster.agents)))

    def restore_site(self, site):
        self.calls.append(("restore_site", site))
        return self.restorable.pop(site, None)

    def site_restarted(self, agent):
        self.calls.append(("site_restarted", agent.site_id))

    def rollup(self, totals):
        totals["rolled_up"] = True
        return totals

    def close(self):
        self.calls.append(("close", ()))


class StubConfig:
    name = "stub"

    def site_subsystem(self, agent):
        return StubSite(agent)

    def cluster_subsystem(self, cluster):
        return StubCluster(cluster)


def test_the_stub_defines_every_hook():
    for hook in SITE_HOOKS + ("handlers", "metrics", "explain"):
        assert callable(getattr(StubSite, hook))
    for hook in CLUSTER_HOOKS + ("rollup",):
        assert callable(getattr(StubCluster, hook))


class _Deployment:
    """One stubbed cluster on either transport, driven uniformly."""

    def __init__(self, transport):
        arguments = dict(
            oa_config=OAConfig(retry_policy=fast_retries(),
                               cache_results=False),
            subsystems=[StubConfig()])
        document = parse_fragment(PAPER_DOCUMENT)
        plan = PartitionPlan(PAPER_PLAN)
        if transport == "tcp":
            self.runtime = TcpCluster(document, plan, **arguments)
            self.cluster = self.runtime.cluster
        else:
            self.runtime = None
            self.cluster = Cluster(document, plan, **arguments)
        self.lifecycle = self.runtime or self.cluster
        self.closed = False

    def site(self, name):
        return self.cluster.agents[name].subsystem("stub")

    def silence(self, site):
        """Make *site* unreachable without telling the cluster."""
        if self.runtime is not None:
            self.runtime.servers[site].stop(drain=False)
        else:
            self.cluster.network.unregister(site)

    def close(self):
        if self.closed:
            return
        self.closed = True
        if self.runtime is not None:
            self.runtime.close()
        else:
            self.cluster.shutdown()


@pytest.fixture(params=["loopback", "tcp"])
def deployment(request):
    deployed = _Deployment(request.param)
    yield deployed
    deployed.close()


class TestStubSubsystem:
    def test_its_message_kind_is_dispatched_to_it(self, deployment):
        cluster = deployment.cluster
        reply = cluster.network.request("client", "oak",
                                        PingMessage("hello"))
        assert isinstance(reply, AckMessage) and reply.detail == "pong"
        assert deployment.site("oak").called("ping") == ["hello"]
        assert deployment.site("top").called("ping") == []

    def test_on_update_fires_with_the_id_path(self, deployment):
        reply = deployment.cluster.network.request(
            "sensor", "oak",
            UpdateMessage(OAK_SPACE, values={"available": "no"}))
        assert reply.ok
        assert deployment.site("oak").called("on_update") == [OAK_SPACE]

    def test_try_scalar_may_answer_or_decline(self, deployment):
        cluster = deployment.cluster
        assert cluster.scalar("stub:answer", at_site="top", now=5.0,
                              max_age=9.0) == 42.0
        count = cluster.scalar(f"count({OAK_BLOCK}/parkingSpace)",
                               at_site="oak")
        assert count > 0  # declined: the gather driver answered
        stub = deployment.site("top")
        assert stub.called("try_scalar") == [
            ("stub:answer", 5.0, 9.0)]

    def test_on_ownership_change_fires_on_both_sides(self, deployment):
        moved = deployment.cluster.delegate(OAK_BLOCK1, "shady")
        assert deployment.site("oak").called("on_ownership_change") == [
            (moved, False, "shady")]
        assert deployment.site("shady").called("on_ownership_change") == [
            (moved, True, "oak")]

    def test_on_dispatch_failure_sees_the_exhausted_group(self, deployment):
        deployment.silence("oak")
        _results, _site, outcome = deployment.cluster.query(
            OAK_BLOCK, at_site="top")
        assert not outcome.complete  # the stub declined: partial answer
        [(target, subqueries, attempts, causes)] = \
            deployment.site("top").called("on_dispatch_failure")
        assert target == "oak"
        assert [subquery.anchor_path for subquery in subqueries] == \
            [OAKLAND]
        assert attempts == fast_retries().max_attempts
        assert len(causes) == attempts

    def test_metrics_reach_site_and_cluster_snapshots(self, deployment):
        cluster = deployment.cluster
        cluster.network.request("client", "oak", PingMessage("count me"))
        assert cluster.agents["oak"].metrics()["stub"] == \
            {"calls": 1, "flag": True}
        section = cluster.metrics()["stub"]
        assert section["calls"] == 1  # summed; the bool flag is not
        assert "flag" not in section
        assert set(section["sites"]) == set(cluster.agents)
        assert section["rolled_up"] is True

    def test_explain_gets_the_context_and_adds_a_section(self, deployment):
        report = deployment.cluster.explain(OAK_BLOCK)
        site = report.site
        assert report.sections["stub"] == {"site": site}
        assert report.to_dict()["stub"] == {"site": site}
        rendered = report.render()
        assert f"stub: explained at {site}" in rendered
        if report.plan:
            assert "stub saw this ask" in rendered
        [(source, lca_path)] = deployment.site(site).called("explain")
        assert source == OAK_BLOCK
        assert lca_path == report.lca_path

    def test_lifecycle_hooks(self, deployment):
        cluster = deployment.cluster
        part = cluster.subsystem("stub")
        assert part.calls[0] == ("cluster_started", sorted(cluster.agents))
        assert cluster.runtime is deployment.runtime

        cluster.agents["top"].flush()
        assert deployment.site("top").called("flush") == [()]

        victim = deployment.site("etna")
        old_database = cluster.agents["etna"].database
        deployment.lifecycle.kill_site("etna")
        assert victim.called("abort") == [()]
        part.restorable["etna"] = SensorDatabase(
            old_database.root.copy(), clock=cluster.clock, site_id="etna")
        agent = deployment.lifecycle.restart_site("etna")
        assert ("restore_site", "etna") in part.calls
        assert part.calls[-1] == ("site_restarted", "etna")
        assert agent.subsystem("stub") is not victim

        deployment.close()
        assert part.calls[-1] == ("close", ())
        for site in cluster.agents:
            assert deployment.site(site).called("close") == [True]


# ----------------------------------------------------------------------
# The shipped subsystems, absent
# ----------------------------------------------------------------------
#: ``TrafficLog.summary()`` of :func:`_parity_traffic` at the last
#: commit before the seam, with no subsystem configured.
GOLDEN_TRAFFIC = {
    "messages": 10,
    "bytes": 4425,
    "links": {
        ("top", "oak"): [2, 471], ("oak", "top"): [2, 1495],
        ("top", "shady"): [2, 494], ("shady", "top"): [2, 1433],
        ("client", "shady"): [1, 212], ("shady", "client"): [1, 320],
    },
}

_PATHS = [OAKLAND, OAK_BLOCK1]
_STAMPS = {OAKLAND: (1.0, 1)}

#: name -> (package, every wire kind the package owns, as messages).
SHIPPED = {
    "replication": ("repro.replication", lambda package: [
        package.ReplicateMessage(
            "oak", parse_fragment("<usRegion id='NE'/>"), _STAMPS,
            sender="oak"),
        package.ReplicaRetireMessage("oak", _PATHS, sender="oak"),
        package.RehydrateRequest("oak", _PATHS, sender="top"),
        package.RehydrateAnswer(7, "oak", stamps=_STAMPS, sender="shady"),
    ]),
    "aggregation": ("repro.agg", lambda package: [
        package.PartialAggregateRequest(OAKLAND, OAK_BLOCK, bound=30.0,
                                        sender="top"),
        package.PartialAggregateAnswer(
            7, {OAKLAND: (package.Partial(), 1.0)}, sender="oak"),
    ]),
    # Migrations ride the agent's own adopt / migrate-release kinds.
    "rebalance": ("repro.rebalance", lambda package: []),
}


def _parity_traffic(monkeypatch, subsystems=()):
    # Message ids show up in the byte counts: pin the sequence.
    monkeypatch.setattr(messages_module, "_SEQUENCE", itertools.count(1000))
    cluster = Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=OAConfig(retry_policy=fast_retries()),
        count_bytes=True, subsystems=subsystems)
    cluster.scalar(f"count({OAK_BLOCK}/parkingSpace)", at_site="top")
    for query in (FIGURE2_QUERY, SHADY_BLOCK, OAK_BLOCK):
        cluster.query(query, at_site="top")
    cluster.query_via_messages(SHADY_BLOCK)
    return cluster, cluster.network.traffic.summary()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_absent_subsystem_is_wire_silent_and_refuses_its_kinds(
        name, monkeypatch):
    module, kinds = SHIPPED[name]
    package = pytest.importorskip(module)  # registers its wire kinds
    cluster, traffic = _parity_traffic(monkeypatch)
    assert traffic == GOLDEN_TRAFFIC
    assert cluster.subsystem(name) is None
    assert "top" in cluster.agents
    assert cluster.agents["top"].subsystem(name) is None
    assert name not in cluster.metrics()
    assert name not in cluster.explain(OAK_BLOCK).to_dict()

    def refused(reply, message):
        assert isinstance(reply, ErrorMessage), (message, reply)
        assert reply.code == "unhandled-kind"
        assert not reply.retryable
        assert reply.in_reply_to == message.message_id

    for message in kinds(package):
        refused(cluster.network.request("client", "top", message), message)
    with TcpCluster(parse_fragment(PAPER_DOCUMENT),
                    PartitionPlan(PAPER_PLAN)) as tcp:
        for message in kinds(package):
            refused(tcp.network.request("client", "top", message), message)


@pytest.mark.parametrize("module, config, moves_traffic", [
    ("repro.replication", "ReplicationConfig", True),
    ("repro.agg", "AggregationConfig", True),
    # The balancer is wire-silent until it migrates something.
    ("repro.rebalance", "RebalanceConfig", False),
])
def test_present_subsystems_do_change_the_traffic(
        module, config, moves_traffic, monkeypatch):
    # Guard the guard: equality with the golden capture is vacuous if a
    # configured subsystem were traffic-neutral on this workload too.
    config = getattr(pytest.importorskip(module), config)()
    _cluster, traffic = _parity_traffic(monkeypatch, [config])
    assert (traffic != GOLDEN_TRAFFIC) == moves_traffic


def test_replication_with_k_zero_is_off(monkeypatch):
    replication = pytest.importorskip("repro.replication")
    cluster, traffic = _parity_traffic(
        monkeypatch, [replication.ReplicationConfig(k=0)])
    assert traffic == GOLDEN_TRAFFIC
    assert cluster.subsystem("replication") is None
    assert cluster.agents["top"].subsystem("replication") is None
