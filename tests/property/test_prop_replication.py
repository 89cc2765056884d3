"""Property: replication never violates a query's freshness bound.

The safety contract of read failover is that a replica copy is served
*only* when its stamp age satisfies the freshness bound the wire query
demands -- for any ring, any replication factor, any mix of reachable,
unreachable and arbitrarily stale replicas.  These properties drive the
bound extraction, the conservative region-age reading, the version
arbitration of reordered batches, and the failover decision itself
with randomized inputs.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.replication import RehydrateAnswer, ReplicationConfig, \
    ReplicationManager, freshness_bound, replica_peers
from repro.replication.manager import _ReplicaStore, region_age
from repro.core.gather import ReplicaServed, SubqueryFailure
from repro.core.answer import Subquery
from repro.net import OrganizingAgent
from repro.net.oa import SiteGuard
from repro.net.transport import Transport
from repro.xmlkit import Element

NOW = 1_000_000.0
ANCHOR = (("usRegion", "NE"), ("state", "PA"))
SITES = ("asker", "etna", "oak", "shady", "top")

site_names = st.sampled_from(SITES)
ages = st.floats(min_value=0.0, max_value=500.0,
                 allow_nan=False, allow_infinity=False)
tolerances = st.integers(min_value=1, max_value=400)


# -- stubs ---------------------------------------------------------------

class _StubNetwork(Transport):
    """Answers rehydration probes from a canned per-peer table."""

    def __init__(self, answers):
        self.answers = answers

    def request(self, _src, dst, _message):
        answer = self.answers.get(dst)
        if answer is None:
            raise OSError(f"peer {dst!r} unreachable")
        return answer


class _StubAgent:
    request = OrganizingAgent.request  # the real guarded request

    def __init__(self, answers, site_id="asker"):
        self.site_id = site_id
        self.clock = lambda: NOW
        self.health = None
        self.guard = SiteGuard()
        self.network = _StubNetwork(answers)
        self.database = None


def _answer(owner, age):
    """A peer's rehydration reply holding one region aged *age*."""
    return RehydrateAnswer(1, owner, fragment=Element("usRegion"),
                          stamps={ANCHOR: (NOW - age, 1)})


def _stamp_age(age):
    """The age failover recomputes from the wire stamp (float round
    trip through ``NOW - age``)."""
    return max(0.0, NOW - (NOW - age))


# -- bound extraction ----------------------------------------------------

class TestFreshnessBoundProperties:

    @given(st.lists(tolerances, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_bound_is_min_over_all_consistency_predicates(self, bounds):
        query = "/usRegion[@id='NE']" + "".join(
            f"[timestamp() > current-time() - {t}]" for t in bounds)
        assert freshness_bound(query) == float(min(bounds))

    @given(st.lists(tolerances, min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_bound_spans_steps(self, bounds):
        steps = ["/usRegion[@id='NE']", "/state[@id='PA']",
                 "/county[@id='Allegheny']"]
        query = "".join(
            step + f"[timestamp() > current-time() - {t}]"
            for step, t in zip(steps, bounds))
        assert freshness_bound(query) == float(min(bounds))

    @given(st.sampled_from([
        "/usRegion[@id='NE']/state[@id='PA']",
        "/usRegion[@id='NE'][price > 3]",
        "count(/usRegion[@id='NE']//parkingSpace)",
    ]))
    @settings(max_examples=10, deadline=None)
    def test_no_consistency_predicate_means_unbounded(self, query):
        assert freshness_bound(query) is None


# -- region age ----------------------------------------------------------

class TestRegionAgeProperties:

    @given(st.lists(ages, min_size=1, max_size=6), st.lists(ages, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_age_is_oldest_member_under_anchor(self, inside, outside):
        stamps = {}
        for index, age in enumerate(inside):
            path = ANCHOR + (("county", f"c{index}"),)
            stamps[path] = (NOW - age, 1, NOW)
        for index, age in enumerate(outside):
            path = (("usRegion", "NE"), ("state", f"other{index}"))
            stamps[path] = (NOW - age, 1, NOW)
        computed = region_age(stamps, ANCHOR, NOW)
        expected = max(_stamp_age(age) for age in inside)
        assert computed is not None
        assert math.isclose(computed, expected, abs_tol=1e-6)

    @given(st.lists(ages, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_no_related_stamps_means_no_copy(self, outside):
        stamps = {
            (("usRegion", "NE"), ("state", f"other{index}")):
                (NOW - age, 1, NOW)
            for index, age in enumerate(outside)
        }
        assert region_age(stamps, ANCHOR + (("county", "x"),), NOW) is None


# -- version arbitration -------------------------------------------------

class TestVersionArbitrationProperties:

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), ages),
        min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_merge_keeps_newest_version_in_any_order(self, batches):
        """Reordered replication batches converge on the max version."""
        store = _ReplicaStore("oak", clock=lambda: NOW)
        for version, age in batches:
            store.merge(None, {ANCHOR: (NOW - age, version)}, NOW)
        newest = max(version for version, _age in batches)
        assert store.stamps[ANCHOR][1] == newest


# -- the failover safety property ----------------------------------------

class TestFailoverFreshnessSafety:

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_failover_never_serves_beyond_the_bound(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4), label="k")
        target = data.draw(site_names, label="target")
        topology = tuple(sorted(SITES))
        peers = replica_peers(target, topology, k)
        peer_ages = {
            peer: data.draw(st.one_of(st.none(), ages), label=f"age[{peer}]")
            for peer in peers
        }
        tolerance = data.draw(st.one_of(st.none(), tolerances),
                              label="tolerance")

        answers = {
            peer: _answer(target, age)
            for peer, age in peer_ages.items()
            if age is not None and peer != "asker"
        }
        agent = _StubAgent(answers)
        manager = ReplicationManager(agent, ReplicationConfig(k=k))
        manager.set_topology(topology)

        query = "/usRegion[@id='NE']/state[@id='PA']"
        if tolerance is not None:
            query += f"[timestamp() > current-time() - {tolerance}]"
        subquery = Subquery(query, ANCHOR, Subquery.INCOMPLETE)

        replies = manager.on_dispatch_failure(
            target, [subquery], attempts=3, causes=["dead"])
        assert replies is not None and len(replies) == 1
        reply = replies[0]

        bound = float(tolerance) if tolerance is not None else None
        # Which peers actually offer a copy (the asker holds none).
        offered = [(peer, _stamp_age(age))
                   for peer, age in peer_ages.items()
                   if age is not None and peer != "asker"]
        fresh = [(peer, age) for peer, age in offered
                 if bound is None or age <= bound]

        if isinstance(reply, ReplicaServed):
            # THE property: a served copy always satisfies the bound.
            assert bound is None or reply.age <= bound
            assert reply.owner == target
            # Ring order: the first fresh peer wins.
            assert (reply.replica, reply.age) == fresh[0]
        else:
            assert isinstance(reply, SubqueryFailure)
            # Nothing fresh existed -- failover refused to lie.
            assert not fresh
            saw_stale = any(bound is not None and age > bound
                            for _peer, age in offered)
            assert reply.replica_too_stale == saw_stale
            if saw_stale:
                assert any("too stale" in cause for cause in reply.causes)

    @given(st.integers(min_value=1, max_value=4), ages,
           st.sampled_from((Subquery.INCOMPLETE, Subquery.ID_COMPLETE,
                            Subquery.UNSEPARABLE, Subquery.STALE,
                            Subquery.MISSING_SUBTREE, Subquery.NESTED_FETCH)))
    @settings(max_examples=30, deadline=None)
    def test_every_gather_ask_is_replica_served(self, k, age, reason):
        """Every gather ask is a location path, so an unbounded one is
        served by the first replica holding a copy, whatever its
        reason."""
        target = "oak"
        topology = tuple(sorted(SITES))
        answers = {peer: _answer(target, age)
                   for peer in replica_peers(target, topology, k)
                   if peer != "asker"}
        agent = _StubAgent(answers)
        manager = ReplicationManager(agent, ReplicationConfig(k=k))
        manager.set_topology(topology)

        ask = Subquery("/usRegion[@id='NE']/state[@id='PA']", ANCHOR,
                       reason, subtree=reason == Subquery.NESTED_FETCH)
        [reply] = manager.on_dispatch_failure(
            target, [ask], attempts=3, causes=["dead"])
        assert isinstance(reply, ReplicaServed)
        assert reply.replica == replica_peers(target, topology, k)[0]
        assert reply.owner == target
