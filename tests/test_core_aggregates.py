"""Tests for the acceptable-precision aggregate extension (Section 4).

A site's scalar answers are its aggregation summaries, held in a
:class:`~repro.agg.summaries.SummaryStore`; the cases here check the
clock-bound behaviour the scalar path relies on, region eviction, and
the cluster-level tolerant-query contract.
"""

import pytest

from repro.agg.summaries import SummaryStore
from repro.core import PartitionPlan
from repro.net import (
    Cluster,
    FaultyNetwork,
    LoopbackNetwork,
    NetError,
    OAConfig,
    RetryPolicy,
    UpdateMessage,
)
from repro.xmlkit import parse_fragment

from tests.conftest import OAKLAND

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")
COUNT = f"count({PREFIX}//parkingSpace[available='yes'])"


class TestAggregateCache:
    def test_miss_then_hit_within_age(self, settable_clock):
        cache = SummaryStore()
        assert cache.lookup(COUNT, settable_clock(), max_age=60) is None
        cache.store(COUNT, 4.0, settable_clock())
        settable_clock.advance(30)
        assert cache.lookup(COUNT, settable_clock(), max_age=60).value == 4.0

    def test_expired_entry_misses(self, settable_clock):
        cache = SummaryStore()
        cache.store(COUNT, 4.0, settable_clock())
        settable_clock.advance(120)
        assert cache.lookup(COUNT, settable_clock(), max_age=60) is None

    def test_no_tolerance_takes_any_age(self, settable_clock):
        # Section 4: a query without a consistency predicate is served
        # cached data of any age.
        cache = SummaryStore()
        cache.store(COUNT, 4.0, settable_clock())
        settable_clock.advance(10 ** 6)
        assert cache.lookup(COUNT, settable_clock()).value == 4.0


# ----------------------------------------------------------------------
# Region eviction
# ----------------------------------------------------------------------
REGION_DOCUMENT = """
<root id='r'>
  <zone id='a'>
    <block id='1'><s id='x'><value>1</value></s></block>
    <block id='1/2'><s id='y'><value>2</value></s></block>
  </zone>
  <zone id='b'>
    <block id='1'><s id='z'><value>3</value></s></block>
  </zone>
</root>
"""
ZONE_A = (("root", "r"), ("zone", "a"))
MIGRATED = ZONE_A + (("block", "1"),)
#: label -> (inner path asked, the region its entry carries)
REGION_ASKS = {
    "above": ("/root[@id='r']/zone[@id='a']", ZONE_A),
    "equal": ("/root[@id='r']/zone[@id='a']/block[@id='1']", MIGRATED),
    "below": ("/root[@id='r']/zone[@id='a']/block[@id='1']/s[@id='x']",
              MIGRATED + (("s", "x"),)),
    "beside": ("/root[@id='r']/zone[@id='b']",
               (("root", "r"), ("zone", "b"))),
    # A string-prefix test reads "block=1/2" as a child of "block=1".
    "slash-in-id": ("/root[@id='r']/zone[@id='a']/block[@id='1/2']",
                    ZONE_A + (("block", "1/2"),)),
}


def _summary_holder():
    cluster = Cluster(parse_fragment(REGION_DOCUMENT),
                      PartitionPlan({"only": [(("root", "r"),)]}))
    agent = cluster.agents["only"]
    return agent, agent.subsystem("aggregation").summaries


def _regions(agent, cache, scalars, extra=()):
    """The regions of the summaries *cache* holds for *scalars* (found
    under the summary key EXPLAIN reports) and under the *extra* keys."""
    keys = [agent.explain(scalar).sections["aggregation"]["summary_key"]
            for scalar in scalars]
    return [entry.region for entry in map(cache.peek, [*keys, *extra])
            if entry is not None]


def test_evict_paths_drops_exactly_the_overlapping_regions():
    agent, cache = _summary_holder()
    scalars = [f"count({inner})" for inner, _region in REGION_ASKS.values()]
    for scalar in scalars:
        assert agent.answer_scalar(scalar) == 1.0
    cache.store("anchorless", 2.0, now=0.0)
    held = set(_regions(agent, cache, scalars, ["anchorless"]))
    assert len(cache) == len(held)
    assert held == {region for _inner, region in REGION_ASKS.values()} \
        | {None}

    assert cache.evict_paths([MIGRATED]) == 3
    assert cache.metrics()["predicate_evictions"] == 3
    survivors = set(_regions(agent, cache, scalars, ["anchorless"]))
    assert len(cache) == len(survivors)
    assert survivors == {REGION_ASKS["beside"][1],
                         REGION_ASKS["slash-in-id"][1], None}
    # Lists off the wire name the same regions as tuples do.
    assert cache.evict_paths([[list(pair) for pair in
                               REGION_ASKS["beside"][1]]]) == 1


def test_an_anchorless_rollup_covers_every_region():
    agent, cache = _summary_holder()
    assert agent.answer_scalar("count(/root/zone)") == 2.0
    assert len(cache) == 1
    assert _regions(agent, cache, ["count(/root/zone)"]) == [()]
    assert cache.evict_paths([MIGRATED]) == 1


def test_an_update_evicts_the_summaries_over_it():
    # Owned data stays current: an unbounded repeat is served the
    # summary until an update under its region lands.
    agent, cache = _summary_holder()
    above, below = REGION_ASKS["above"][0], REGION_ASKS["beside"][0]
    scalars = [f"count({inner}//value)" for inner in (above, below)]
    for scalar, value in zip(scalars, (2.0, 1.0)):
        assert agent.answer_scalar(scalar) == value
    agent.handle_message(UpdateMessage(
        MIGRATED + (("s", "x"),), values={"value": "5"}, sender="sa"))
    assert len(cache) == 1
    assert _regions(agent, cache, scalars) == [REGION_ASKS["beside"][1]]
    assert agent.answer_scalar(f"sum({above}//value)") == 7.0


class TestClusterPrecisionQueries:
    def test_tolerant_aggregate_served_from_cache(self, paper_doc,
                                                  paper_plan,
                                                  settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        site, _ = cluster.route_query(COUNT)
        agent = cluster.agent(site)

        exact = cluster.scalar(COUNT)
        sent = cluster.network.traffic.messages

        # Within tolerance: answered from the summary, no new gather
        # at all.
        settable_clock.advance(10)
        tolerant = cluster.scalar(COUNT, max_age=60)
        assert tolerant == exact
        assert cluster.network.traffic.messages == sent
        assert agent.subsystem("aggregation").summaries.stats["hits"] == 1

    def test_stale_aggregate_recomputed(self, paper_doc, paper_plan,
                                        settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        site, _ = cluster.route_query(COUNT)
        first = cluster.scalar(COUNT)

        # The world changes...
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = cluster.add_sensing_agent("sa-agg", [space])
        sa.send_update(space, values={"available": "yes"})
        settable_clock.advance(120)

        # ...a tolerant query past its age bound recomputes.
        fresh = cluster.scalar(COUNT, max_age=60)
        assert fresh == first + 1

    def test_a_current_count_sees_an_update_at_once(self, paper_doc,
                                                    paper_plan,
                                                    settable_clock):
        # A zero bound is served no summary: not the asker's, not the
        # owner's, however recently either was stored.
        current = COUNT[:-1] + "[timestamp > now - 0])"
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        first = cluster.scalar(current)
        assert cluster.scalar(COUNT) == first
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = cluster.add_sensing_agent("sa-agg", [space])
        sa.send_update(space, values={"available": "yes"})
        assert cluster.scalar(current) == first + 1

    def test_an_absolute_bound_is_not_served_an_older_summary(
            self, paper_doc, paper_plan, settable_clock):
        # No lookup bound checks ``timestamp() > 4000``: a summary of
        # data current at 1000 must not answer it at 5000.
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        first = cluster.scalar(COUNT, at_site="top")
        settable_clock.now = 5000.0
        sent = cluster.network.traffic.messages
        absolute = COUNT[:-1] + "[timestamp() > 4000])"
        assert cluster.scalar(absolute, at_site="top") == first
        assert cluster.network.traffic.messages > sent

    def test_an_inclusive_bound_is_not_served_an_older_summary(
            self, paper_doc, paper_plan, settable_clock):
        # ``>=`` (what ``<=`` canonicalizes to) bounds a summary's age
        # as ``>`` does: a summary of data current at 1000 must not
        # answer ``now - 30`` at 5000.
        inclusive = COUNT[:-1] + "[timestamp >= now - 30])"
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        first = cluster.scalar(inclusive, at_site="top")
        settable_clock.now = 5000.0
        sent = cluster.network.traffic.messages
        assert cluster.scalar(inclusive, at_site="top") == first
        assert cluster.network.traffic.messages > sent

    def test_partial_aggregate_is_not_cached_as_the_whole(self, paper_doc,
                                                          paper_plan,
                                                          settable_clock):
        """A count taken while a site was down must not be served, under
        ``max_age``, as the full count once the site is back."""
        query = f"count({PREFIX}/neighborhood/block/parkingSpace)"
        retries = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0,
                              jitter=0.0, sleep=lambda seconds: None)
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock,
                          oa_config=OAConfig(retry_policy=retries),
                          network=FaultyNetwork(LoopbackNetwork(), seed=0))
        summaries = cluster.agents["top"].subsystem("aggregation").summaries
        cluster.network.crash("shady")
        with pytest.raises(NetError):
            cluster.scalar(query, at_site="top")
        assert len(summaries) == 0

        cluster.network.recover("shady")
        settable_clock.advance(10)
        assert cluster.scalar(query, at_site="top", max_age=60) == 5.0
        # The complete answer is cached and served from then on.
        hits = summaries.stats["hits"]
        assert cluster.scalar(query, at_site="top", max_age=60) == 5.0
        assert cluster.scalar(query, at_site="top") == 5.0
        assert summaries.stats["hits"] == hits + 2
