"""Property: read failover never serves beyond a query's freshness bound.

On a real loopback cluster (the paper deployment, ``k`` drawn): every
node is stamped at build time, and the clock then stands at the drawn
age of the owner's pushed copies.  The owner dies, some of its ring
peers may die with it, and a site that is not one of its peers asks a
query into the owner's region, with or without a drawn bound.  A
served answer must equal the centralized evaluator's; no region may be
served from a copy older than the bound; and the completeness report
must name what happened -- served by the first live peer, refused as
too stale, or unreachable when no live peer holds the region.

The other properties drive the parts of that decision one at a time:
the walk applies every consistency predicate of the ask itself, the
served age is the oldest timestamp under the anchor, a peer holding no
push of the owner's is no copy, pushes merge newest-first in any
arrival order, and every shape of ask fails over alike.
"""

from hypothesis import given, settings, strategies as st

from repro.core import PartitionPlan
from repro.core.status import Status, get_status
from repro.net import Cluster, LoopbackNetwork, OAConfig
from repro.net.messages import ReplicateMessage, UpdateMessage
from repro.replication import ReplicationConfig, replica_peers
from repro.xmlkit import parse_fragment
from repro.xpath.evaluator import Evaluator
from repro.xpath.parser import parse

from tests.conftest import OAKLAND, PAPER_DOCUMENT
from tests.test_failure_injection import (
    OAK_BLOCK,
    PAPER_PLAN,
    PREFIX,
    answer_set,
    fast_retries,
)

OWNER = "oak"
SITES = sorted(PAPER_PLAN)
QUERIES = (
    OAK_BLOCK,
    OAK_BLOCK + "/parkingSpace[available='yes']",
    OAK_BLOCK.replace("/block[@id='1']", "/block"),
)
BLOCK = OAKLAND + (("block", "1"),)
# The nodes a reply to OAK_BLOCK carries, and two of oak's outside it.
MEMBERS = (BLOCK, BLOCK + (("parkingSpace", "1"),),
           BLOCK + (("parkingSpace", "2"),))
OUTSIDE = (OAKLAND + (("block", "2"),),
           OAKLAND + (("block", "2"), ("parkingSpace", "1")))

ks = st.integers(min_value=1, max_value=2)
ages = st.integers(min_value=0, max_value=250)
tolerances = st.integers(min_value=1, max_value=200)


def _oracle(query):
    """The query over the one logical document."""
    return Evaluator().evaluate(
        parse(query), parse_fragment(PAPER_DOCUMENT), now=0.0)


def _cluster(k, clock, network=None):
    return Cluster(
        parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
        oa_config=OAConfig(retry_policy=fast_retries()),
        network=network, clock=lambda: clock["now"],
        subsystems=[ReplicationConfig(k=k)])


def _asker(k):
    """A site that is neither the owner nor one of its k ring peers."""
    peers = replica_peers(OWNER, SITES, k)
    return [site for site in SITES if site not in peers + [OWNER]][0]


def _fail_over(k, age, query, network=None):
    """Kill the owner of copies aged *age* and ask *query* at a site
    that is not its peer: ``(results, outcome, report)``."""
    clock = {"now": 0.0}
    cluster = _cluster(k, clock, network)
    clock["now"] = float(age)
    cluster.kill_site(OWNER)
    results, _, outcome = cluster.query(query, at_site=_asker(k))
    return results, outcome, outcome.completeness_report()


def _bounded(step, bounds):
    return step + "".join(f"[timestamp() > current-time() - {bound}]"
                          for bound in bounds)


def _assert_served_iff_fresh(failover, fresh, age, unbounded):
    results, outcome, report = failover
    if fresh:
        assert outcome.complete
        assert [entry["age"] for entry in report["served_by_replica"]] \
            == [age]
        assert answer_set(results) == answer_set(_oracle(unbounded))
        return
    assert not outcome.complete and results == []
    assert report["served_by_replica"] == report["unreachable"] == []
    assert report["replica_too_stale"]


# -- the ask's own bound -------------------------------------------------

class TestFreshnessBoundProperties:
    """The peer's walk applies every consistency predicate of the ask:
    a copy is served exactly when it is younger than each bound."""

    @given(ks, st.lists(tolerances, min_size=1, max_size=4), ages)
    @settings(max_examples=30, deadline=None)
    def test_bound_is_min_over_all_consistency_predicates(self, k, bounds,
                                                          age):
        failover = _fail_over(k, age, _bounded(OAK_BLOCK, bounds))
        _assert_served_iff_fresh(failover, age < min(bounds), age, OAK_BLOCK)

    @given(ks, st.lists(tolerances, min_size=1, max_size=3), ages)
    @settings(max_examples=30, deadline=None)
    def test_bound_spans_steps(self, k, bounds, age):
        steps = ["/neighborhood[@id='Oakland']", "/block[@id='1']",
                 "/parkingSpace"]
        query = PREFIX + "".join(_bounded(step, [bound])
                                 for step, bound in zip(steps, bounds))
        unbounded = PREFIX + "".join(steps[:len(bounds)])
        _assert_served_iff_fresh(_fail_over(k, age, query),
                                 age < min(bounds), age, unbounded)

    @given(ks, st.integers(min_value=0, max_value=10 ** 6),
           st.sampled_from([
               OAK_BLOCK,
               OAK_BLOCK + "/parkingSpace[price > 10]",
               f"count({OAK_BLOCK}/parkingSpace)",
           ]))
    @settings(max_examples=20, deadline=None)
    def test_no_consistency_predicate_means_unbounded(self, k, age, query):
        if not query.startswith("count("):
            _assert_served_iff_fresh(_fail_over(k, age, query), True, age,
                                     query)
            return
        clock = {"now": 0.0}
        cluster = _cluster(k, clock)
        clock["now"] = float(age)
        cluster.kill_site(OWNER)
        asker = _asker(k)
        assert cluster.scalar(query, at_site=asker) == _oracle(query)
        counters = cluster.agent(asker).subsystem("replication").metrics()
        assert counters["failover_served"] >= 1
        assert counters["replica_too_stale"] == 0


# -- the served age ------------------------------------------------------

class TestRegionAgeProperties:

    @given(ks,
           st.dictionaries(st.sampled_from(MEMBERS),
                           st.integers(min_value=1, max_value=100)),
           st.dictionaries(st.sampled_from(OUTSIDE),
                           st.integers(min_value=1, max_value=100)),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_age_is_oldest_member_under_anchor(self, k, inside, outside,
                                               later):
        """Owner updates re-stamp nodes and push them: the served age is
        the oldest timestamp under the asked block, whatever happened
        outside it."""
        clock = {"now": 0.0}
        cluster = _cluster(k, clock)
        oak = cluster.agent(OWNER)
        updates = sorted([*inside.items(), *outside.items()],
                         key=lambda item: item[1])
        for path, stamp in updates:
            clock["now"] = float(stamp)
            oak.handle_message(UpdateMessage(path, values={},
                                             sender="sensor"))
        clock["now"] = float(max((stamp for _path, stamp in updates),
                                 default=0) + later)
        cluster.kill_site(OWNER)
        results, _, outcome = cluster.query(OAK_BLOCK, at_site=_asker(k))
        oldest = min(inside.get(member, 0) for member in MEMBERS)
        assert outcome.complete
        [served] = outcome.completeness_report()["served_by_replica"]
        assert served["age"] == clock["now"] - oldest
        assert answer_set(results) == answer_set(_oracle(OAK_BLOCK))

    @given(ks, st.data())
    @settings(max_examples=20, deadline=None)
    def test_no_related_stamps_means_no_copy(self, k, data):
        """A peer holding other owners' pushes but none of oak's is no
        copy of oak's region: the first peer that holds one serves it,
        and with none the region is reported as held by no replica."""
        peers = replica_peers(OWNER, SITES, k)
        missing = data.draw(st.sets(st.sampled_from(peers)), label="missing")
        network = LoopbackNetwork()

        def drop_owner_pushes(src, dst, message):
            if isinstance(message, ReplicateMessage) and src == OWNER \
                    and dst in missing:
                raise OSError("push lost")

        network.interceptors.append(drop_owner_pushes)
        results, outcome, report = _fail_over(k, 0, OAK_BLOCK, network)
        holders = [peer for peer in peers if peer not in missing]
        if holders:
            assert outcome.complete
            [served] = report["served_by_replica"]
            assert served["replica"] == holders[0]
            assert answer_set(results) == answer_set(_oracle(OAK_BLOCK))
            return
        assert not outcome.complete and results == []
        assert report["served_by_replica"] == report["replica_too_stale"] \
            == []
        [miss] = report["unreachable"]
        assert miss["causes"][-1] == \
            f"no replica of site {OWNER!r} holds the region"


# -- push ordering -------------------------------------------------------

class TestVersionArbitrationProperties:

    @given(st.lists(st.integers(min_value=0, max_value=99), min_size=1,
                    max_size=6, unique=True),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_merge_keeps_newest_version_in_any_order(self, prices, data):
        """Reordered pushes converge on the newest: the merge keeps the
        copy with the later timestamp, whatever order they arrive in."""
        clock = {"now": 0.0}
        held = []
        network = LoopbackNetwork()

        def hold_pushes(src, dst, message):
            if isinstance(message, ReplicateMessage) and src == OWNER:
                held.append(message)
                raise OSError("held back")

        cluster = _cluster(1, clock, network)  # oak's only peer: shady
        network.interceptors.append(hold_pushes)
        space = BLOCK + (("parkingSpace", "1"),)
        for stamp, price in enumerate(prices, start=1):
            clock["now"] = float(stamp)
            cluster.agent(OWNER).handle_message(UpdateMessage(
                space, values={"price": str(price)}, sender="sensor"))
        assert len(held) == len(prices)
        peer = cluster.agent("shady")
        for push in data.draw(st.permutations(held), label="arrival"):
            peer.handle_message(ReplicateMessage(push.fragment.copy(),
                                                 sender=OWNER))
        copy = peer.database.find(space)
        assert get_status(copy) is Status.COMPLETE
        assert copy.child("price").text == str(prices[-1])


# -- the failover safety property ----------------------------------------

@st.composite
def failovers(draw):
    k = draw(ks, label="k")
    peers = replica_peers(OWNER, SITES, k)
    askers = [site for site in SITES if site not in peers + [OWNER]]
    return {
        "k": k,
        "peers": peers,
        "asker": draw(st.sampled_from(askers), label="asker"),
        "dead_peers": draw(st.one_of(st.just(set()),
                                     st.sets(st.sampled_from(peers))),
                           label="dead peers"),
        "age": draw(st.integers(min_value=0, max_value=200), label="age"),
        "bound": draw(st.one_of(st.none(),
                                st.integers(min_value=1, max_value=200)),
                      label="bound"),
        "query": draw(st.sampled_from(QUERIES), label="query"),
    }


class TestFailoverFreshnessSafety:

    @given(failovers())
    @settings(max_examples=60, deadline=None)
    def test_failover_never_serves_beyond_the_bound(self, case):
        clock = {"now": 0.0}
        cluster = _cluster(case["k"], clock)
        clock["now"] = float(case["age"])  # every copy is from t=0
        for site in [OWNER] + sorted(case["dead_peers"]):
            cluster.kill_site(site)
        query = case["query"]
        if case["bound"] is not None:
            query += f"[timestamp() > current-time() - {case['bound']}]"

        results, _, outcome = cluster.query(query, at_site=case["asker"])
        report = outcome.completeness_report()

        live = [peer for peer in case["peers"]
                if peer not in case["dead_peers"]]
        fresh = case["bound"] is None or case["age"] < case["bound"]
        served = report["served_by_replica"]
        for entry in served:
            # THE property: no copy older than the bound is served.
            assert fresh
            assert entry["age"] == case["age"]
            assert (entry["owner"], entry["replica"]) == (OWNER, live[0])
        if live and fresh:
            assert outcome.complete and served
            assert answer_set(results) == \
                answer_set(_oracle(case["query"]))
            assert report["unreachable"] == report["replica_too_stale"] == []
            return
        assert not outcome.complete
        assert served == [] and results == []
        if live:
            assert report["unreachable"] == []
            for miss in report["replica_too_stale"]:
                assert any("too stale" in cause for cause in miss["causes"])
            assert report["replica_too_stale"]
        else:
            assert report["replica_too_stale"] == []
            for miss in report["unreachable"]:
                assert miss["causes"][-1] == \
                    f"no replica of site {OWNER!r} holds the region"
            assert report["unreachable"]

    @given(ks, ages, st.sampled_from([
        OAK_BLOCK,
        PREFIX + "/neighborhood[@id='Oakland']",
        PREFIX + "/neighborhood[@id='Oakland']/block",
        PREFIX + "/neighborhood[@id='Oakland']//parkingSpace",
        PREFIX + "/neighborhood[@id='Oakland']/block[@id='1' or @id='2']",
        OAK_BLOCK + "/parkingSpace[not(price > ../parkingSpace/price)]",
    ]))
    @settings(max_examples=30, deadline=None)
    def test_every_gather_ask_is_replica_served(self, k, age, query):
        """Every gather ask is a location path -- a residual, a subtree
        fetch, a batch of several -- so an unbounded one is served by
        the first replica holding a copy, whatever its shape."""
        results, outcome, report = _fail_over(k, age, query)
        assert outcome.complete
        assert report["served_by_replica"]
        first = replica_peers(OWNER, SITES, k)[0]
        for entry in report["served_by_replica"]:
            assert (entry["owner"], entry["replica"]) == (OWNER, first)
        assert answer_set(results) == answer_set(_oracle(query))
